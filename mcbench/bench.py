"""Workloads, the closed trial loop and the end-to-end metrics.

A run draws the workload's `codes` codes and runs trials on them
round-robin as a single-process, single-threaded closed loop: each trial
starts when the previous one has ended.  Every trial goes through the
public calls (`random_message`, `ChannelEncoder.encode`, `channel.sample`,
`decode_bp`; or `source.sample`, `lossy.encode_reproduction`,
`lossy.decode`), and its outputs are checked outside its timed region.
An exception inside a trial is a failed trial, counted by type.  In an
untraced run a reference kernel is timed after every trial and build, and
the end-to-end times are stated at its nominal speed (see hostspeed.py).
"""

import json
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cosetcode import channel, fastbp, lossy, models, sampler, sparsemat
from cosetcode.gf import GF
from cosetcode.stats import wilson_interval

import layers
from hostspeed import REF_NOMINAL_S, HostSpeed
from tracer import Tracer

LAYER_MODULES = (sparsemat, fastbp, sampler, channel, lossy, models)
CONFIG = Path(__file__).with_name("workloads.json")
# end-to-end metrics with a regression bound in BENCHMARK.json; error_rate and
# fail_rate are printed with them but can read 0, so they carry no bound
E2E_METRICS = ("setup_s", "trials_per_s", "trial_ms_p50", "trial_ms_p90", "peak_rss_mb")

# setup_s is the median of at least SETUP_BUILDS timed builds, and of as many
# as fit SETUP_SECONDS when builds are cheap
SETUP_BUILDS, SETUP_SECONDS = 5, 1.0
# trials per untraced/traced pair of blocks in a traced run
PAIR_BLOCK = 8
# purposes of the benchmark's random streams: codes come from CODE_SEED, trial
# inputs from the run's seed
CODE_SEED = 0
_CODE, _TRIAL, _WARM = 0, 1, 2


def load_workloads() -> dict:
    return json.loads(CONFIG.read_text())


def rng_for(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng([seed, *path])


def spmv(M, x) -> np.ndarray:
    """M x over GF(q), computed from M's CSR arrays independently of the library."""
    y = np.zeros(M.rows, dtype=np.int64)
    np.add.at(y, M.row_of, M.coeffs * np.asarray(x, dtype=np.int64)[M.col_idx])
    return y % M.field.q


def _dense(M) -> np.ndarray:
    d = np.zeros((M.rows, M.cols), dtype=np.int64)
    d[M.row_of, M.col_idx] = M.coeffs
    return d


@dataclass
class Trial:
    seconds: float
    failure: str | None = None          # exception type when the trial raised
    pos: int | None = None              # position among the host-speed reference times
    error: bool = False                 # channel: m_hat != m; lossy: d_n > n D
    violations: list = field(default_factory=list)
    distortion: float | None = None     # lossy: d_n / n


class ChannelWorkload:
    """Uniform message, encode, transmit, BP-decode."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        code = cfg["code"]
        self.q, self.n = code["q"], code["n"]
        self.prior = models.MemorylessSource(np.tile(cfg["prior"], (self.n, 1)))
        kind, p = cfg["channel"]["kind"], cfg["channel"]["p"]
        self.channel = models.bsc(p, self.n) if kind == "bsc" else models.qsc(self.q, p, self.n)
        self.sampler_cfg = sampler.SamplerConfig(**cfg["encoder"])

    def build(self, rng):
        c = self.cfg["code"]
        seed = int(rng.integers(0, 2 ** 62))
        spec = channel.sample_code(self.n, c["l"], c["k"], c["tau"], GF(self.q),
                                   self.prior, seed)
        return spec, channel.ChannelEncoder(spec, self.sampler_cfg)

    def checker(self, code):
        """Left-null rows N of the stacked map: (c, m) is in its image iff N (c, m) = 0.

        N is empty when the stacked map is onto; then only a traced run,
        which sees the decoder's x_hat, can check a decoder success.
        """
        spec, _ = code
        ech = spec.ech_stacked
        null = ech.transform[ech.rank:]
        if np.any(null @ _dense(spec.stacked) % self.q):
            raise RuntimeError("stacked echelon transform does not annihilate the map")
        return null

    def trial(self, code, rng):
        spec, encoder = code
        m = spec.random_message(rng)
        x = encoder.encode(m, rng)
        y = self.channel.sample(x, rng)
        out = channel.decode_bp(spec, y, self.channel)
        return m, x, out

    def judge(self, code, null, result, trial: Trial, spans=()):
        spec, _ = code
        m, x, out = result
        if not np.array_equal(spmv(spec.A, x), spec.c):
            trial.violations.append("encoder output has A x != c")
        if not np.array_equal(spmv(spec.B, x), m):
            trial.violations.append("encoder output has B x != m")
        trial.error = not out.success or not np.array_equal(out.m_hat, m)
        if out.success:
            if np.any(null @ np.concatenate([spec.c, out.m_hat]) % self.q):
                trial.violations.append("decoded message has no x_hat with A x_hat = c")
            # traced runs see the decoder's x_hat through the marginals probe
            for s in spans:
                if s.name == "fastbp.CosetBP.marginals" and s.parent is not None \
                        and s.parent.name == "channel.decode_bp":
                    if not np.array_equal(spmv(spec.A, s.info["x_hat"]), spec.c):
                        trial.violations.append("decoder success with A x_hat != c")


class LossyWorkload:
    """Source word, sample a reproduction, send m = B x, decode from (c, m)."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        code = cfg["code"]
        self.q, self.n = code["q"], code["n"]
        self.source = models.MemorylessSource(np.tile(cfg["source"], (self.n, 1)))
        self.test_channel = models.bsc(cfg["test_channel"]["p"], self.n)
        self.distortion = models.hamming_distortion(self.q)
        self.sampler_cfg = sampler.SamplerConfig(**cfg["encoder"])

    def build(self, rng):
        c, field_ = self.cfg["code"], GF(self.q)
        A = sparsemat.sample_sparse_matrix(
            sparsemat.EnsembleSpec(n=self.n, l=c["l"], field=field_, tau=c["tau"]), rng)
        B = sparsemat.sample_sparse_matrix(
            sparsemat.EnsembleSpec(n=self.n, l=c["k"], field=field_, tau=c["tau"]), rng)
        target = A.mat_vec(rng.integers(0, self.q, size=self.n))
        return lossy.LossyCodeSpec(A, B, target, self.source, self.test_channel,
                                   self.distortion, self.cfg["target_d"])

    def checker(self, code):
        return None

    def trial(self, spec, rng):
        y = spec.source.sample(rng)
        x = lossy.encode_reproduction(spec, y, self.sampler_cfg, rng)
        m = spec.B.mat_vec(x)
        return y, x, m, lossy.decode(spec, m)

    def judge(self, spec, _, result, trial: Trial, spans=()):
        y, x, m, x_hat = result
        if not np.array_equal(spmv(spec.A, x), spec.c):
            trial.violations.append("reproduction has A x != c")
        if not np.array_equal(spmv(spec.B, x), m):
            trial.violations.append("message is not B x")
        if x_hat is None:
            trial.violations.append("decoder found no member of a nonempty joint coset")
            trial.error = True
            return
        if not (np.array_equal(spmv(spec.A, x_hat), spec.c)
                and np.array_equal(spmv(spec.B, x_hat), m)):
            trial.violations.append("decoded word is outside the joint coset of (c, m)")
        d = float(self.distortion.table[x_hat, y].sum())
        trial.distortion = d / self.n
        trial.error = d > self.n * self.cfg["target_d"]


def make_workload(cfg: dict):
    return (ChannelWorkload if cfg["family"] == "channel" else LossyWorkload)(cfg)


# -- the loop ------------------------------------------------------------------


def build_codes(work, tracer: Tracer | None = None, host: HostSpeed | None = None):
    """Draw the workload's codes; returns (codes, checkers, builds), where
    builds holds (seconds, host position) per code.

    Codes come from CODE_SEED, not from the run's seed, so every run times
    the same code mix: on qsc3-sp the cost of one code varies tenfold with
    how often its sampler restarts.
    """
    codes, checkers, builds = [], [], []
    for j in range(work.cfg["codes"]):
        rng = rng_for(CODE_SEED, _CODE, j)
        root = tracer.open("setup") if tracer else None
        t0 = time.perf_counter()
        code = work.build(rng)
        dt = time.perf_counter() - t0
        if root is not None:
            tracer.close(root)
        builds.append((dt, host.after(dt) if host else None))
        codes.append(code)
        checkers.append(work.checker(code))
    return codes, checkers, builds


def run_trials(work, codes, checkers, seed: int, *, seconds: float | None = None,
               count: int | None = None, first: int = 0, tracer: Tracer | None = None,
               host: HostSpeed | None = None, stream: int = _TRIAL,
               seen: set | None = None) -> list:
    """Closed loop over trials first, first + 1, ... until `seconds` elapse or
    `count` are done.

    Checks and the host-speed reference run after the trial's clock stops.
    The traceback of each exception type not in `seen` goes to stderr.
    """
    trials, seen = [], set() if seen is None else seen
    start = time.perf_counter()
    while len(trials) < count if count is not None else \
            time.perf_counter() - start < seconds:
        t = first + len(trials)
        j = t % len(codes)
        rng = rng_for(seed, stream, t)
        mark = len(tracer.spans) if tracer else 0
        root = tracer.open("trial") if tracer else None
        failure = None
        t0 = time.perf_counter()
        try:
            result = work.trial(codes[j], rng)
        except Exception as exc:   # a failed trial is an outcome, not the end of the run
            failure = type(exc).__name__
            if failure not in seen:
                seen.add(failure)
                traceback.print_exc(file=sys.stderr)
        t1 = time.perf_counter()
        if root is not None:
            tracer.close(root, failure)
        trial = Trial(t1 - t0, failure, host.after(t1 - t0) if host else None)
        if failure is None:
            work.judge(codes[j], checkers[j], result, trial,
                       tracer.spans[mark:] if tracer else ())
        trials.append(trial)
    return trials


def time_setup(work, builds: list, host: HostSpeed) -> list:
    """Rebuild the workload's codes round-robin, discarding them, until `builds`
    holds SETUP_BUILDS builds and SETUP_SECONDS of building."""
    builds = list(builds)
    while len(builds) < SETUP_BUILDS or sum(b[0] for b in builds) < SETUP_SECONDS:
        rng = rng_for(CODE_SEED, _CODE, len(builds) % work.cfg["codes"])
        t0 = time.perf_counter()
        work.build(rng)
        dt = time.perf_counter() - t0
        builds.append((dt, host.after(dt)))
    return builds


def warm_up(work, codes, checkers, seed: int) -> None:
    """Two untimed trials on their own stream, so lazy set-up is done."""
    run_trials(work, codes, checkers, seed, count=2, stream=_WARM)


# -- metrics -------------------------------------------------------------------


@dataclass
class Summary:
    attempted: int
    failed: int
    errors: int
    failures_by_type: dict
    violations: list
    ok_ms: np.ndarray            # trial times of completed trials
    all_s: float                 # summed time of all trials, failed ones too

    @classmethod
    def of(cls, trials, scales=None):
        """scales: per trial, the factor that states its time at nominal host speed."""
        scales = np.ones(len(trials)) if scales is None else np.asarray(scales)
        by_type, violations = {}, []
        for i, t in enumerate(trials):
            if t.failure:
                by_type[t.failure] = by_type.get(t.failure, 0) + 1
            violations += [f"trial {i}: {v}" for v in t.violations]
        failed = sum(1 for t in trials if t.failure or t.violations)
        errors = sum(1 for t in trials if t.failure or t.error)
        secs = np.array([t.seconds for t in trials]) * scales
        ok = secs[[not t.failure for t in trials]] * 1e3
        return cls(len(trials), failed, errors, by_type, violations, ok, float(secs.sum()))

    @property
    def correct(self) -> bool:
        return not self.violations


def end_to_end(builds, trials, host: HostSpeed):
    """The seven end-to-end metrics as {name: (value, unit)} plus notes.

    Times are stated at the host speed where the reference kernel takes
    REF_NOMINAL_S; the notes give the wall-clock figures.
    """
    setup_wall = [b[0] for b in builds]
    setup = [b[0] * host.scale(b[1]) for b in builds]
    s = Summary.of(trials, [host.scale(t.pos) for t in trials])
    wall = Summary.of(trials)
    if not s.ok_ms.size:
        s.violations.append("no trial completed")
    p50, p90 = np.percentile(s.ok_ms, [50, 90]) if s.ok_ms.size else (0.0, 0.0)
    w50, w90 = np.percentile(wall.ok_ms, [50, 90]) if wall.ok_ms.size else (0.0, 0.0)
    lo, hi = wilson_interval(s.errors, s.attempted)
    metrics = {
        "setup_s": (float(np.median(setup)), "s"),
        "trials_per_s": (s.ok_ms.size / s.all_s, "1/s"),
        "trial_ms_p50": (float(p50), "ms"),
        "trial_ms_p90": (float(p90), "ms"),
        "error_rate": (s.errors / s.attempted, "ratio"),
        "fail_rate": (s.failed / s.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {
        "setup_s": f"median of {len(builds)} code builds; wall {np.median(setup_wall):.4g} s",
        "trials_per_s": f"{s.ok_ms.size} completed trials in {s.all_s:.3f} s of trials;"
                        f" wall {wall.ok_ms.size / wall.all_s:.4g} /s; reference median"
                        f" {host.median_ms():.3f} ms, nominal {REF_NOMINAL_S * 1e3:g} ms",
        "trial_ms_p50": f"{s.ok_ms.size} completed trials; wall {w50:.4g} ms",
        "trial_ms_p90": f"{int((s.ok_ms > p90).sum())} trials beyond it; wall {w90:.4g} ms",
        "error_rate": f"{s.errors}/{s.attempted} trials, Wilson 99% [{lo:.4f}, {hi:.4f}]",
        "fail_rate": f"{s.failed}/{s.attempted} trials; exceptions {s.failures_by_type},"
                     f" check violations {len(s.violations)}",
        "peak_rss_mb": "ru_maxrss of this process, with the reference kernel's ~9 MB",
    }
    return metrics, notes, s


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the two kinds of run ----------------------------------------------------------


def run_plain(work, seed: int, seconds: float):
    """Timed set-up, then the trial loop, each step followed by the host-speed
    reference."""
    host = HostSpeed()
    codes, checkers, builds = build_codes(work, host=host)
    builds = time_setup(work, builds, host)
    warm_up(work, codes, checkers, seed)
    trials = run_trials(work, codes, checkers, seed, seconds=seconds, host=host)
    return end_to_end(builds, trials, host)


def run_traced(work, seed: int, seconds: float):
    """Traced set-up, then trials in blocks of PAIR_BLOCK, each run untraced and
    then traced on the same inputs, so the overhead is measured pairwise.

    Returns (per-layer metrics, summary of both passes, the tracer with its spans).
    """
    tracer = Tracer(LAYER_MODULES, layers.PROBES)
    tracer.install()
    try:
        missed = tracer.missed()
        codes, checkers, _ = build_codes(work, tracer)
    finally:
        tracer.remove()
    warm_up(work, codes, checkers, seed)
    plain, traced, seen = [], [], set()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        first = len(plain)
        plain += run_trials(work, codes, checkers, seed, count=PAIR_BLOCK, first=first,
                            seen=seen)
        tracer.install()
        try:
            traced += run_trials(work, codes, checkers, seed, count=PAIR_BLOCK, first=first,
                                 tracer=tracer, seen=seen)
        finally:
            tracer.remove()
    left = tracer.left_behind()
    summary = Summary.of(plain + traced)
    if missed or left:
        summary.violations.append(f"tracing missed {missed}, left behind {left}")
    metrics = layers.layer_metrics(tracer.spans, traced, plain)
    return metrics, summary, tracer
