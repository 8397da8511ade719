"""The benchmark's workloads: seeded inputs, one pipeline, and its checks.

Every workload uses model1 with the default warp law.  One closed-loop
client runs the pipeline again as soon as the previous run ends, in one
process, with at most two threads.  The program sees only the generated
inputs; the seed and the truth stay with the benchmark.
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

WARMUP_CURVES = 12  # warm-up pipelines run on this many curves at full grid size


@dataclass(frozen=True)
class Spec:
    name: str
    n: int
    r: int
    noise: float
    api: str        # "library" or "cli"
    threads: int


# Why each workload is here is stated in BENCHMARK.json: wide and tall have
# the same n*r, so together they separate n^2 from n*r scaling and a template
# fix from a kernel fix; noisy_cli is the only one through LOO-CV, _parallel
# and dataio.
WORKLOADS = {
    "wide": Spec("wide", 200, 1001, 0.0, "library", 1),
    "tall": Spec("tall", 1000, 201, 0.0, "library", 1),
    "noisy_cli": Spec("noisy_cli", 100, 101, 0.1, "cli", 2),
}


@dataclass
class Pass:
    """One pipeline execution: timings, outputs reduced to arrays, failures."""

    register_s: float
    pipeline_s: float
    outputs: checks.Outputs = None
    failures: list = dataclasses.field(default_factory=list)
    fingerprint: object = None   # what an invariant check compares


class LibraryWorkload:
    """register_discrete, then FPCA and diagnostics, through the library API."""

    register_span = "registration.register_discrete"

    def __init__(self, spec: Spec, seed: int, scratch: Path):
        self.spec, self.seed = spec, seed

    def generate(self, m):
        sim = m.simulate
        cfg = sim.LatentModelConfig("model1", grid_size=self.spec.r, noise_halfwidth=self.spec.noise)
        self.bundle = sim.make_truth_bundle(cfg, sim.WarpLawConfig(), self.spec.n, self.seed)

    def warm_up(self, m):
        k = min(WARMUP_CURVES, self.spec.n)
        self._run(m, self._subset(list(range(k))))

    def prepare_checks(self):
        self.ideal = checks.Ideal(checks.library_truth(self.bundle))

    def _subset(self, order):
        b = self.bundle
        return dataclasses.replace(
            b,
            latent=[b.latent[i] for i in order],
            observed=[b.observed[i] for i in order],
            warps=[b.warps[i] for i in order],
            coefficients=b.coefficients[order],
        )

    def _run(self, m, bundle):
        opts = m.registration.RegisterOptions(threads=self.spec.threads)
        t0 = time.perf_counter()
        res = m.registration.register_discrete(bundle.observed, opts)
        t1 = time.perf_counter()
        kernel = m.fpca.covariance_matrix(res.registered)
        eig = m.fpca.leading_eigenpairs(kernel, res.output_grid, 3)
        for phi in eig.eigenfunctions:
            m.fpca.scores(res.registered, phi, eig.grid)
        z = m.diagnostics.z_statistic(res.registered)
        m.diagnostics.evaluate_against_truth(res, bundle)
        t2 = time.perf_counter()
        return res, z, t1 - t0, t2 - t0

    def run(self, m, alternate=False):
        """One checked pipeline; ``alternate`` feeds the curves shuffled."""
        n = self.spec.n
        order = np.arange(n)
        if alternate:
            order = np.random.default_rng([self.seed, 1]).permutation(n)
        res, z, reg_s, pipe_s = self._run(m, self._subset(order) if alternate else self.bundle)
        out = checks.library_outputs(res, z)
        back = np.argsort(order)  # rows back to the truth's order
        out.warps, out.registered = out.warps[back], out.registered[back]
        p = Pass(reg_s, pipe_s, out)
        # the invariant: template and mean are bit-identical under a shuffle
        p.fingerprint = (
            res.template_cdf.jump_locations.tobytes(),
            res.template_cdf.cum_values.tobytes(),
            np.asarray(res.mean.values).tobytes(),
        )
        return p

    alternate_failure = "template or mean changed under a shuffled sample"

    def invariant_pass(self, m):
        return None

    def close(self):
        pass


class CliWorkload:
    """``varireg register --regime noisy`` then ``varireg diagnose --truth``."""

    register_span = "cli.cmd_register"

    def __init__(self, spec: Spec, seed: int, scratch: Path):
        self.spec, self.seed = spec, seed
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{spec.name}-", dir=scratch))
        self._count = 0

    def _simulate(self, m, n, out):
        argv = [
            "simulate", "--model", "model1", "--n", str(n), "--r", str(self.spec.r),
            "--noise", repr(self.spec.noise), "--seed", str(self.seed), "--out", str(out),
        ]
        rc = m.cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"varireg simulate exited with {rc}")

    def generate(self, m):
        self.sim = self.tmp / "sim"
        self._simulate(m, self.spec.n, self.sim)

    def warm_up(self, m):
        warm = self.tmp / "warm"
        self._simulate(m, min(WARMUP_CURVES, self.spec.n), warm / "sim")
        self._run(m, warm / "sim", warm, self.spec.threads)
        shutil.rmtree(warm)

    def prepare_checks(self):
        self.ids, truth = checks.cli_truth(self.sim)
        self.ideal = checks.Ideal(truth)

    def _run(self, m, sim, out, threads):
        reg, dia = out / "reg", out / "dia"
        t0 = time.perf_counter()
        rc1 = m.cli.main([
            "register", str(sim / "observed.csv"), "--regime", "noisy",
            "--threads", str(threads), "--out", str(reg),
        ])
        t1 = time.perf_counter()
        rc2 = m.cli.main(["diagnose", str(reg), "--truth", str(sim), "--out", str(dia)])
        t2 = time.perf_counter()
        return rc1, rc2, t1 - t0, t2 - t0

    def run(self, m, alternate=False, threads=None):
        """One checked pipeline; ``alternate`` changes nothing for the CLI."""
        self._count += 1
        out = self.tmp / f"run{self._count}"
        try:
            rc1, rc2, reg_s, pipe_s = self._run(m, self.sim, out, threads or self.spec.threads)
            p = Pass(reg_s, pipe_s)
            if rc1 != 0 or rc2 != 0:
                p.failures.append(f"CLI exit codes register={rc1} diagnose={rc2}")
                return p
            p.outputs = checks.cli_outputs(out / "reg", out / "dia", self.ids)
            p.fingerprint = {
                str(f.relative_to(out)): f.read_bytes() for f in sorted(out.rglob("*")) if f.is_file()
            }
            return p
        finally:
            shutil.rmtree(out, ignore_errors=True)

    alternate_failure = "CLI outputs differ between two identical runs"

    invariant_failure = "CLI outputs differ between --threads 1 and --threads 2"

    def invariant_pass(self, m):
        """The same run at --threads 1; outputs must match --threads 2 byte for byte."""
        return self.run(m, threads=1)

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


def make(spec: Spec, seed: int, scratch: Path):
    cls = LibraryWorkload if spec.api == "library" else CliWorkload
    return cls(spec, seed, scratch)
