"""The three benchmark workloads: the CLI commands of one round and the
checks on what they write.

Pipeline seeds come from the benchmark's --seed: a workload with K seeds per
round runs seeds seed*K .. seed*K+K-1.  Every command runs with --jobs 1.
"""

import os

import checks

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs")
RHO_VALUES = "0,0.3,0.5,0.7,0.9,1"


class Workload:
    name = ""
    config = ""
    seeds_per_round = 1

    def __init__(self):
        self.config_path = os.path.join(CONFIGS, self.config)
        self.cfg = checks.read_config(self.config_path)

    def seeds(self, seed):
        k = self.seeds_per_round
        return [seed * k + i for i in range(k)]

    def commands(self, seeds, out):
        """[(argv, out_dir)] of one round, writing below `out`."""
        raise NotImplementedError

    def check(self, seeds, out_dirs):
        """Checks one round's outputs; returns the distilled student's
        quality as {"student_top1": ...} or {"student_mae": ...}."""
        raise NotImplementedError

    def final_check(self, seeds, out, main):
        """Checks run once per benchmark run, after the timed rounds."""


class ClsRun(Workload):
    """`cgankd run` on the classification config, one command per seed,
    each writing its checkpoints."""
    name = "cls-run"
    config = "cls.cfg"
    seeds_per_round = 6

    def commands(self, seeds, out):
        return [(["run", self.config_path, "--seed", str(s), "--jobs", "1",
                  "--out-dir", os.path.join(out, f"seed{s}")],
                 os.path.join(out, f"seed{s}")) for s in seeds]

    def check(self, seeds, out_dirs):
        rows = [checks.check_run(d, self.cfg, s)
                for s, d in zip(seeds, out_dirs)]
        checks.check_direction(rows)
        return {"student_top1": sum(float(r["student_cgankd_metric"])
                                    for r in rows) / len(rows)}


class RegRhoSweep(Workload):
    """`cgankd sweep --param rho` on the regression config."""
    name = "reg-rho-sweep"
    config = "reg.cfg"

    def commands(self, seeds, out):
        return [(["sweep", self.config_path, "--param", "rho",
                  "--values", RHO_VALUES, "--seeds",
                  ",".join(str(s) for s in seeds), "--jobs", "1",
                  "--out-dir", out], out)]

    def check(self, seeds, out_dirs):
        return {"student_mae": checks.check_sweep(
            out_dirs[0], self.cfg, RHO_VALUES.split(","), seeds)}


class RegCganAblation(Workload):
    """`cgankd ablation` on the regression config with a trained cGAN."""
    name = "reg-cgan-ablation"
    config = "reg_cgan.cfg"

    def commands(self, seeds, out):
        return [(["ablation", self.config_path, "--seeds",
                  ",".join(str(s) for s in seeds), "--jobs", "1",
                  "--out-dir", out], out)]

    def check(self, seeds, out_dirs):
        return {"student_mae": checks.check_ablation(out_dirs[0], seeds)}

    def final_check(self, seeds, out, main):
        run_dir = os.path.join(os.path.dirname(out), "run")
        os.makedirs(run_dir, exist_ok=True)
        code = main(["run", self.config_path, "--seed", str(seeds[0]),
                     "--jobs", "1", "--out-dir", run_dir])
        checks.expect(code == 0, f"cgankd run exited {code}")
        checks.check_ablation_matches_run(out, run_dir, seeds[0])


WORKLOADS = {w.name: w for w in (ClsRun, RegRhoSweep, RegCganAblation)}
