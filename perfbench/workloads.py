"""The benchmark's workloads: set-up, timed rounds and output checks.

Each workload builds its inputs from the seed in its constructor (the
set-up), then repeats one fixed round of operations until the run length has
passed, and finally checks what the program produced against the reference
computations in `reference.py` and against properties the method must have.
Calls go through lvfsr's module attributes at call time, so the per-layer
timers that `tracing.Tracer` installs see them.
"""

from __future__ import annotations

import functools
import math
import os
import shutil
from array import array
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import calibration
import reference as ref
from lvfsr import checks, datagen, evaluate, network, priors, training
from lvfsr.numeric import gradcheck

# Time metrics are read at this percentile of many short samples. On a shared
# machine, neighbouring load slows the same code by up to 1.8x for seconds to
# minutes at a time; the fast end of the samples moves with the code, the
# median and the mean mostly with the neighbours.
FLOOR_Q = 5

# the 90th percentile needs at least ten samples beyond it
MIN_SAMPLES = 110

# seconds between calibration units in the timed phase (a unit takes ~5 ms)
CALIBRATE_EVERY_S = 0.1

NET = dict(l=3, c=32, heads=4, d_c=64, d_d=64, k=8)

# The images come from one fixed dataset seed; --seed draws the model's
# initial weights and the training order. Across dataset seeds the mean SSIM
# of eight synthetic faces spreads by 17% (quartile distance over median),
# more than any quality bound could hold.
DATA_SEED = 0


@dataclass
class Outcome:
    """What the timed phase did and what the checks found."""
    ops: int = 0
    items: int = 0
    # seconds per operation; a compact array keeps memory flat across rounds
    samples: array = field(default_factory=lambda: array("d"))
    # seconds per timed part of a round, by part name; "rest" is the round's
    # time outside every named part
    parts: dict = field(default_factory=dict)
    op_parts: set = field(default_factory=set)    # the parts that are operations
    rounds: list = field(default_factory=list)    # seconds per round
    timed_s: float = 0.0
    psnr_db: float = 0.0
    ssim: float = 0.0
    checks: list = field(default_factory=list)    # (name, ok, detail)
    layer: dict = field(default_factory=dict)     # workload-measured per-layer metrics
    calibration: array = field(default_factory=lambda: array("d"))  # seconds per unit
    _parts_s: float = 0.0
    _calibration_s: float = 0.0
    _next_calibration: float = 0.0

    def check(self, name: str, ok, detail: str) -> None:
        self.checks.append((name, bool(ok), detail))

    def op(self, name: str, seconds) -> None:
        """Record one or more operation latencies, of the kind `name`."""
        if isinstance(seconds, float):
            self.samples.append(seconds)
        else:
            self.samples.extend(seconds)
        self.op_parts.add(name)
        self.part(name, seconds)
        self.tick()

    def tick(self) -> None:
        """Run the calibration unit if it is due; call between operations."""
        if perf_counter() >= self._next_calibration:
            dt = calibration.unit()
            self.calibration.append(dt)
            self._calibration_s += dt
            self._next_calibration = perf_counter() + CALIBRATE_EVERY_S

    def part(self, name: str, seconds) -> None:
        """Record one or more durations of the round part `name`."""
        times = self.parts.setdefault(name, array("d"))
        if isinstance(seconds, float):
            times.append(seconds)
            self._parts_s += seconds
        else:
            times.extend(seconds)
            self._parts_s += sum(seconds)

    def calibration_floor_s(self) -> float:
        return float(np.percentile(self.calibration, FLOOR_Q))

    def floor_round_s(self) -> float:
        """One round's time with every part at its FLOOR_Q-th percentile,
        scaled to the calibration unit's reference speed.

        Each part runs the same number of times in every round, so before
        scaling this is the round's wall time at the fastest speed the run
        saw sustained, which neighbouring load on a shared machine moves far
        less than the median or the mean.
        """
        return self._floor(self.parts) / len(self.rounds) * self._scale()

    def floor_op_s(self) -> float:
        """Mean operation latency with every kind of operation at its
        FLOOR_Q-th percentile (with one kind, that percentile itself), scaled
        to the calibration unit's reference speed."""
        ops = {k: self.parts[k] for k in self.op_parts}
        return self._floor(ops) / len(self.samples) * self._scale()

    def _scale(self) -> float:
        return calibration.REFERENCE_S / self.calibration_floor_s()

    @staticmethod
    def _floor(parts: dict) -> float:
        return sum(len(t) * float(np.percentile(t, FLOOR_Q)) for t in parts.values())


def run_timed(workload, seconds: float) -> Outcome:
    """Repeat whole rounds until `seconds` have passed and enough samples exist.

    Rounds take turns on the usable CPUs. A slow spell often holds one core
    and not the other, and the floor then comes from the quiet one.
    """
    out = Outcome()
    cpus = sorted(os.sched_getaffinity(0))
    start = perf_counter()
    try:
        while True:
            os.sched_setaffinity(0, {cpus[len(out.rounds) % len(cpus)]})
            t0 = perf_counter()
            in_parts, in_calibration = out._parts_s, out._calibration_s
            workload.run_round(out)
            dt = perf_counter() - t0 - (out._calibration_s - in_calibration)
            out.rounds.append(dt)
            out.part("rest", dt - (out._parts_s - in_parts))
            if perf_counter() - start >= seconds and len(out.samples) >= MIN_SAMPLES:
                break
    finally:
        os.sched_setaffinity(0, cpus)
    out.timed_s = perf_counter() - start
    return out


def _ids(root, split):
    with open(os.path.join(root, f"{split}.txt")) as fh:
        return fh.read().split()


def _hr(root, split, image_id):
    return ref.read_ppm(os.path.join(root, "hr", split, f"{image_id}.ppm"))


def _bundle(root, split, image_id):
    return priors.load_prior_bundle(os.path.join(root, "priors", split), image_id, k=NET["k"])


def _sr(model, lr, bundle):
    """The model's output as a user sees it: clipped to the pixel range."""
    return np.clip(model.forward(lr, bundle).data, 0.0, 1.0)


class TrainX8:
    """`run_training` at the overfit-gate config; one round is one whole run."""
    HR, SCALE, COUNT, BATCH, STEPS, LR = 64, 8, 8, 8, 60, 1e-3

    def __init__(self, work: str, seed: int):
        self.work, self.seed = work, seed
        self.data = os.path.join(work, "data")
        datagen.generate_dataset(self.data, count=self.COUNT, hr_size=self.HR,
                                 scale=self.SCALE, seed=DATA_SEED, informative=False,
                                 splits=("train",))
        self.cfg = training.TrainConfig(
            lr=self.LR, epochs=self.STEPS, batch=self.BATCH, scale=self.SCALE,
            seed=seed, checkpoint_interval=self.STEPS, data_root=self.data,
            variant="full", network=training.NetworkFields(**NET))
        self.logs = []
        self.final = None

    def calls_per_op(self) -> dict:
        """Op calls one train step must make, derived from the config."""
        b, l = self.BATCH, NET["l"]
        return {"conv2d": b * (3 + 5 * l + 1), "scaled_dot_attention": b * 4 * l}

    def run_round(self, out: Outcome) -> None:
        run_dir = os.path.join(self.work, f"run{len(self.logs)}")
        self.final = None  # the previous round's model would raise peak memory
        step = training.train_step

        def timed_step(*args, **kwargs):
            t0 = perf_counter()
            loss = step(*args, **kwargs)
            out.op("train_step", perf_counter() - t0)
            return loss

        training.train_step = timed_step
        try:
            self.final = training.run_training(self.cfg, run_dir)
        finally:
            training.train_step = step
        with open(os.path.join(run_dir, "loss.log"), "rb") as fh:
            self.logs.append(fh.read())
        shutil.rmtree(run_dir)
        out.ops += self.final.step
        out.items += self.final.step * self.BATCH

    def finish(self, out: Outcome) -> None:
        rows = [line.split("\t") for line in self.logs[0].decode().splitlines()]
        losses = [float(r[1]) for r in rows]
        out.check("loss log holds one finite loss per configured step",
                  [int(r[0]) for r in rows] == list(range(1, self.STEPS + 1))
                  and all(math.isfinite(v) for v in losses),
                  f"{len(losses)} lines for {self.STEPS} steps")
        out.check("every round reproduces the loss log byte for byte",
                  all(log == self.logs[0] for log in self.logs),
                  f"{len(self.logs)} rounds")

        ids = _ids(self.data, "train")
        hrs = [_hr(self.data, "train", i) for i in ids]
        lrs = [ref.resize(hr, self.HR // self.SCALE, self.HR // self.SCALE).astype(np.float32)
               for hr in hrs]
        bundles = [_bundle(self.data, "train", i) for i in ids]
        cfg = network.NetworkConfig(r=self.SCALE, h=self.HR // self.SCALE,
                                    w=self.HR // self.SCALE, **NET)
        init = network.Model(cfg, "full", self.seed)
        # batch == count, so step 1 averages the L1 over every image
        expect = float(np.mean([ref.l1(init.forward(lr, b).data, hr)
                                for lr, b, hr in zip(lrs, bundles, hrs)]))
        out.check("step-1 loss equals the reference L1 of the initial model",
                  abs(losses[0] - expect) <= 1e-5 * expect,
                  f"logged {losses[0]:.8f}, reference {expect:.8f}")
        tail = float(np.mean(losses[-max(1, self.STEPS // 10):]))
        out.check("final-tenth mean loss is well below the step-1 loss",
                  tail < 0.5 * losses[0], f"{tail:.5f} vs {losses[0]:.5f}")

        model = network.model_from_checkpoint(self.final)
        srs = [_sr(model, lr, b) for lr, b in zip(lrs, bundles)]
        ours = float(np.mean([ref.psnr(sr, hr) for sr, hr in zip(srs, hrs)]))
        base = float(np.mean([ref.psnr(np.clip(ref.resize(lr, self.HR, self.HR), 0.0, 1.0), hr)
                              for lr, hr in zip(lrs, hrs)]))
        out.check("trained model beats reference bicubic on its training images",
                  ours > base, f"{ours:.3f} dB vs bicubic {base:.3f} dB")
        out.psnr_db = ours
        out.ssim = float(np.mean([ref.ssim(sr, hr) for sr, hr in zip(srs, hrs)]))


class InferX16:
    """Super-resolve a x16 test split with a checkpoint trained in set-up."""
    HR, SCALE, COUNT, BATCH, STEPS, LR = 128, 16, 8, 2, 100, 2e-3

    def __init__(self, work: str, seed: int):
        self.work, self.seed = work, seed
        self.data = os.path.join(work, "data")
        self.pred = os.path.join(work, "pred")
        os.makedirs(self.pred)
        datagen.generate_dataset(self.data, count=self.COUNT, hr_size=self.HR,
                                 scale=self.SCALE, seed=DATA_SEED, informative=True)
        lr_side = self.HR // self.SCALE
        for split in ("train", "test"):
            os.makedirs(os.path.join(self.data, "lr", split))
            for image_id in _ids(self.data, split):
                lr = ref.resize(_hr(self.data, split, image_id), lr_side, lr_side)
                priors.write_ppm(self._lr_path(split, image_id), lr)
        cfg = training.TrainConfig(
            lr=self.LR, epochs=self.STEPS * self.BATCH // self.COUNT,
            batch=self.BATCH, scale=self.SCALE, seed=seed,
            checkpoint_interval=self.STEPS, data_root=self.data, variant="full",
            network=training.NetworkFields(**NET))
        train_dir = os.path.join(work, "train")
        training.run_training(cfg, train_dir)
        self.ckpt = os.path.join(train_dir, "ckpt_final.lvck")
        self.test_ids = _ids(self.data, "test")
        self.reports = []
        self.outputs_ok = True

    def _lr_path(self, split, image_id):
        return os.path.join(self.data, "lr", split, f"{image_id}.ppm")

    def calls_per_op(self) -> dict:
        """Op calls one image's forward must make, derived from the config."""
        l = NET["l"]
        return {"conv2d": 3 + 5 * l + 1, "scaled_dot_attention": 4 * l}

    def run_round(self, out: Outcome) -> None:
        t0 = perf_counter()
        model = network.model_from_checkpoint(network.load_checkpoint(self.ckpt))
        out.part("load", perf_counter() - t0)
        prior_dir = os.path.join(self.data, "priors", "test")
        shape = (3, self.HR, self.HR)
        for image_id in self.test_ids:
            t0 = perf_counter()
            lr = priors.read_ppm(self._lr_path("test", image_id))
            bundle = priors.load_prior_bundle(prior_dir, image_id, k=NET["k"])
            y = model.forward(lr, bundle).data
            priors.write_ppm(os.path.join(self.pred, f"{image_id}.ppm"), y)
            out.op("image", perf_counter() - t0)
            self.outputs_ok &= y.shape == shape and bool(np.isfinite(y).all())
        t0 = perf_counter()
        self.reports.append(evaluate.eval_dir(self.pred, os.path.join(self.data, "hr", "test")))
        out.part("eval_dir", perf_counter() - t0)
        out.ops += len(self.test_ids)
        out.items += len(self.test_ids)

    def finish(self, out: Outcome) -> None:
        out.check("every output is (3, 128, 128) and finite", self.outputs_ok,
                  f"{out.ops} images")
        rep = self.reports[-1]
        worst = 0.0
        for image_id, p, s in rep.records:
            pred = ref.read_ppm(os.path.join(self.pred, f"{image_id}.ppm"))
            gt = _hr(self.data, "test", image_id)
            worst = max(worst, abs(p - ref.psnr(pred, gt)), abs(s - ref.ssim(pred, gt)))
        out.check("eval_dir PSNR/SSIM match the reference within 1e-6",
                  worst <= 1e-6 and len(rep.records) == self.COUNT,
                  f"worst difference {worst:.3g} over {len(rep.records)} images")
        out.check("every round reports the same scores",
                  all(r.records == rep.records for r in self.reports),
                  f"{len(self.reports)} rounds")

        model = network.model_from_checkpoint(network.load_checkpoint(self.ckpt))
        ours, base = [], []
        for image_id in _ids(self.data, "train"):
            lr = ref.read_ppm(self._lr_path("train", image_id)).astype(np.float32)
            hr = _hr(self.data, "train", image_id)
            ours.append(ref.psnr(_sr(model, lr, _bundle(self.data, "train", image_id)), hr))
            base.append(ref.psnr(np.clip(ref.resize(lr, self.HR, self.HR), 0.0, 1.0), hr))
        out.check("checkpoint beats reference bicubic on its training images",
                  np.mean(ours) > np.mean(base),
                  f"{np.mean(ours):.3f} dB vs bicubic {np.mean(base):.3f} dB")

        a, b = self.test_ids[:2]
        lr = ref.read_ppm(self._lr_path("test", a)).astype(np.float32)
        own = model.forward(lr, _bundle(self.data, "test", a)).data
        swapped = model.forward(lr, _bundle(self.data, "test", b)).data
        moved = float(np.abs(own - swapped).max())
        out.check("another image's priors change the output (fusion gates open)",
                  moved > 1e-6, f"max change {moved:.3g}")
        out.psnr_db, out.ssim = rep.mean_psnr, rep.mean_ssim


class _Probe:
    """Wraps a gradcheck builder: times it and every forward evaluation."""

    def __init__(self, builder, out: Outcome):
        self.builder, self.out = builder, out
        self.values, self.times = [], []

    def __call__(self, seed):
        t0 = perf_counter()
        self.params, forward = self.builder(seed)
        self.builder_s = perf_counter() - t0
        self.entries = sum(p.data.size for p in self.params.values())
        values, times, tick = self.values, self.times, self.out.tick

        @functools.wraps(forward)
        def timed_forward(*args, **kwargs):
            t1 = perf_counter()
            loss = forward(*args, **kwargs)
            times.append(perf_counter() - t1)
            values.append(float(loss.data))
            tick()
            return loss

        return self.params, timed_forward


class Gradcheck:
    """`grad_check` over the op and fusion-block builders; one round is the suite."""
    EPS = 1e-4
    BASE_EVALS = 2   # one taped evaluation for the analytic gradient, one refresh

    def __init__(self, work: str, seed: int):
        self.seed = seed
        # checks.network_builder is left out: its worst relative error
        # exceeds checks.TOLERANCE on some seeds (0.000276 at seed 9), from
        # finite-difference noise on near-zero gradient entries
        self.targets = ([(f"op.{name}", b) for name, b in checks.op_builders()]
                        + [("lvpfb", checks.fusion_builder)])
        self.errors = []        # per round: the worst error of each target
        self.last = []          # (name, error, probe) of the latest round only
        self.bad_counts = set()
        self.evals = 0
        self.builder_s = 0.0

    def calls_per_op(self) -> dict:
        return {}

    def run_round(self, out: Outcome) -> None:
        self.last = []
        for name, builder in self.targets:
            probe = _Probe(builder, out)
            err = gradcheck.grad_check(probe, seed=self.seed, eps=self.EPS)
            fd_times = probe.times[self.BASE_EVALS:]
            out.op(f"fd.{name}", fd_times)
            out.ops += len(fd_times)
            out.items += len(fd_times)
            if len(probe.values) != 2 * probe.entries + self.BASE_EVALS:
                self.bad_counts.add(name)
            self.evals += len(probe.values)
            self.builder_s += probe.builder_s
            self.last.append((name, err, probe))
        self.errors.append([err for _, err, _ in self.last])

    def finish(self, out: Outcome) -> None:
        worst, worst_name = max((e, n) for n, e, _ in self.last)
        out.check("every target's worst relative error is below checks.TOLERANCE",
                  worst < checks.TOLERANCE,
                  f"worst {worst:.3g} ({worst_name}) vs {checks.TOLERANCE:g}")
        out.check("every round gives the same errors",
                  all(e == self.errors[0] for e in self.errors), f"{len(self.errors)} rounds")
        out.check("evaluations equal twice the parameter entries plus the base evaluations",
                  not self.bad_counts, f"mismatched targets: {sorted(self.bad_counts) or 'none'}")

        analytic, numeric, mismatched = [], [], []
        for name, err, probe in self.last:
            a = np.concatenate([
                (p.grad if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
                for p in probe.params.values()])
            v = np.asarray(probe.values[self.BASE_EVALS:])
            n = (v[0::2] - v[1::2]) / (2.0 * self.EPS)
            rel = np.abs(a - n) / np.maximum(1e-8, np.abs(a) + np.abs(n))
            if abs(float(rel.max()) - err) > 1e-12 * max(err, 1e-300):
                mismatched.append(name)
            analytic.append(a)
            numeric.append(n)
        out.check("worst errors recomputed from the recorded evaluations agree",
                  not mismatched, f"disagreeing targets: {mismatched or 'none'}")
        # no images here: the quality of a gradient check is how closely the
        # finite differences agree with the analytic gradients
        out.psnr_db = 20.0 * math.log10(1.0 / worst)
        out.ssim = ref.global_ssim(np.concatenate(analytic), np.concatenate(numeric))
        rounds = len(out.rounds)
        out.layer = {
            "gradcheck.evals": (self.evals / rounds, "count"),
            "gradcheck.eval_us_p50": (1e6 * float(np.median(out.samples)), "us"),
            "gradcheck.builder_ms": (1e3 * self.builder_s / rounds, "ms"),
        }


WORKLOADS = {"train-x8": TrainX8, "infer-x16": InferX16, "gradcheck": Gradcheck}
