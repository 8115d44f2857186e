"""Time one scenemask workload from outside the program, in one process.

    python3 bench/run.py --workload {train,robustness,explain}
        --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src/``.  Every
load is a closed loop with one caller and BLAS pinned to one thread.  The
workload's own operation takes half of ``--seconds``; with ``--trace 0``
whole rounds of the two other operations are interleaved with it for the
other half, so every run reports every end-to-end metric.  With ``--trace 1``
untraced and traced rounds of the workload's own operation alternate
instead, and the per-layer figures are reported.  Outputs are then checked
against the references in ``checks.py``.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the machine record, check details and the per-layer table go to
standard error.  See README.md.

checks.py and spans.py import numpy, so they are imported only after main()
has pinned the BLAS threads.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_DIR, "src")
CHECKPOINTS = {
    "masked": os.path.join(BENCH_DIR, "checkpoints", "masked.ckpt"),
    "baseline": os.path.join(BENCH_DIR, "checkpoints", "baseline.ckpt"),
}
THREAD_PINS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

TRAIN_EPOCHS = 3  # per train() call; patience equals it, so early stopping cannot fire
TRAIN_LR, TRAIN_LAM, TRAIN_BATCH = 1e-3, 0.1, 16
NOISE_SEEDS = 5
MASK_START = 0.9
PRIMARY_SHARE = 0.5  # of the timed phase, for the workload's own operation


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def import_program():
    """Import scenemask from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC_DIR, "scenemask", "__init__.py")):
        raise SystemExit(f"bench: scenemask sources not found under {SRC_DIR}")
    sys.path.insert(0, SRC_DIR)
    import scenemask

    if not os.path.abspath(scenemask.__file__).startswith(SRC_DIR + os.sep):
        raise SystemExit(f"bench: imported scenemask from {scenemask.__file__}, not {SRC_DIR}")
    return scenemask


def machine_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pins": {var: os.environ.get(var) for var in THREAD_PINS},
    }


class Inputs:
    """Everything the workloads read, built during set-up."""

    def __init__(self, sm, seed: int, work_dir: str):
        self.seed = seed
        self.root = work_dir
        self.spec = sm.SceneSpec(seed=seed)
        sm.generate_dataset(self.spec, work_dir)
        self.manifest = sm.load_manifest(os.path.join(work_dir, "manifest.csv"))
        self.models = {name: sm.load_checkpoint(path) for name, path in CHECKPOINTS.items()}
        self.images = [
            (sm.read_image(os.path.join(work_dir, row.path)), row.label) for row in self.manifest.rows
        ]


class Operation:
    """One kind of timed work, repeated in identical rounds."""

    def __init__(self, sm, inputs: Inputs):
        self.sm = sm
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.per_round: list = []  # the operation's figure for each round

    def call(self, fn, *args):
        """Run one program call; a raised exception counts as a failed operation."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            if self.failed == 1:
                log(f"bench: {type(self).__name__} operation failed:\n{traceback.format_exc()}")
            return None


class TrainOp(Operation):
    """A masked training run of TRAIN_EPOCHS epochs per round."""

    def __init__(self, sm, inputs):
        super().__init__(sm, inputs)
        self.config = sm.TrainConfig(
            learning_rate=TRAIN_LR,
            lam=TRAIN_LAM,
            batch_size=TRAIN_BATCH,
            max_epochs=TRAIN_EPOCHS,
            patience=TRAIN_EPOCHS,
            seed=inputs.seed,
            variant="masked",
        )
        self.n_train = len(inputs.manifest.split_rows("train"))
        self.samples, self.wall, self.results, self.params = 0, 0.0, [], None

    def round(self) -> None:
        start = time.perf_counter()
        out = self.call(self.sm.train, self.config, self.inputs.manifest, self.inputs.root)
        wall = time.perf_counter() - start
        if out is not None:
            self.samples += TRAIN_EPOCHS * self.n_train
            self.wall += wall
            self.per_round.append(TRAIN_EPOCHS * self.n_train / wall)
            params, record = out
            self.results.append((params.snapshot(), record))
            if self.params is None:
                self.params = params

    def metrics(self) -> dict:
        return {"train_samples_per_s": (self.samples / self.wall, "samples/s")}

    def check(self) -> list:
        import checks

        if not self.results:
            return ["train: no run completed"]
        sm, failures = self.sm, []
        first, record = self.results[0]
        if any(any(not _bitwise_equal(first[k], snap[k]) for k in first) for snap, _ in self.results[1:]):
            failures.append("train: parameters differ between rounds (traced and untraced included)")
        if record.stopping_epoch != TRAIN_EPOCHS:
            failures.append(f"train: stopped at epoch {record.stopping_epoch}, not {TRAIN_EPOCHS}")
        if not record.train_loss[-1] < record.train_loss[0]:
            failures.append(f"train: final loss {record.train_loss[-1]} not below first {record.train_loss[0]}")
        mask_mean = float(checks.mask_values(first["mask.logits"]).mean())
        if not mask_mean < MASK_START:
            failures.append(f"train: mask mean {mask_mean} not below {MASK_START}")
        log(f"check train: loss {record.train_loss[0]:.6f} -> {record.train_loss[-1]:.6f}, mask mean {mask_mean:.6f}")

        params = self.params
        failures += _check_forward(sm, self.inputs, "train model", params, first)

        row = self.inputs.manifest.split_rows("train")[0]
        x = checks.to_input(checks.read_ppm(os.path.join(self.inputs.root, row.path)))
        logits = sm.predict(params, sm.Tensor(x))
        pre = sm.softmax_cross_entropy(logits, row.label)
        objective = sm.total_loss(pre, sm.mask_from_logits(params.mask), TRAIN_LAM).total
        sm.backward(objective)
        grads = {name: t.grad.copy() for name, t in params.named_tensors().items()}
        value, _ = checks.objective(first, x, row.label, TRAIN_LAM)
        if abs(objective.item() - value) > checks.LOGIT_TOL * max(1.0, abs(value)):
            failures.append(f"train: objective {objective.item()} != reference {value}")
        grad_failures, detail = checks.check_gradient(first, x, row.label, TRAIN_LAM, grads)
        log(f"check train gradient: {detail}")
        return failures + grad_failures


class SweepOp(Operation):
    """robustness_sweep over both checkpoints, every Gaussian and salt-and-pepper level."""

    def __init__(self, sm, inputs):
        super().__init__(sm, inputs)
        self.kinds = (("gaussian", list(sm.GAUSSIAN_LEVELS)), ("salt_pepper", list(sm.SALT_PEPPER_LEVELS)))
        n_test = len(inputs.manifest.split_rows("test"))
        self.classifications = sum(len(levels) for _, levels in self.kinds) * NOISE_SEEDS * len(CHECKPOINTS) * n_test
        self.classified, self.wall, self.rows, self.mismatched_rounds = 0, 0.0, None, 0

    def round(self) -> None:
        paths = list(CHECKPOINTS.values())
        start = time.perf_counter()
        rows = {
            kind: self.call(
                self.sm.robustness_sweep, paths, kind, levels, self.inputs.manifest,
                self.inputs.root, NOISE_SEEDS, self.inputs.seed,
            )
            for kind, levels in self.kinds
        }
        wall = time.perf_counter() - start
        if any(r is None for r in rows.values()):
            return
        self.classified += self.classifications
        self.wall += wall
        self.per_round.append(self.classifications / wall)
        if self.rows is None:
            self.rows = rows
        elif rows != self.rows:
            self.mismatched_rounds += 1

    def metrics(self) -> dict:
        return {"eval_images_per_s": (self.classified / self.wall, "images/s")}

    def check(self) -> list:
        import checks

        if self.rows is None:
            return ["robustness: no sweep completed"]
        sm, inputs, failures = self.sm, self.inputs, []
        if self.mismatched_rounds:
            failures.append(f"robustness: {self.mismatched_rounds} rounds returned other rows than the first")
        clean = {}
        for name, params in inputs.models.items():
            clean[name], _ = sm.evaluate(params, inputs.manifest, "test", inputs.root)
            failures += _check_forward(sm, inputs, f"{name} checkpoint", params, checks.read_checkpoint(CHECKPOINTS[name]))
        for kind, levels in self.kinds:
            rows = self.rows[kind]
            if len(rows) != len(levels) * NOISE_SEEDS * len(CHECKPOINTS):
                failures.append(f"robustness {kind}: {len(rows)} rows")
            for model, _, _, level, seed, accuracy in rows:
                if level == 0 and accuracy != clean[model]:
                    failures.append(f"robustness {kind}: level 0 seed {seed} {model} {accuracy} != clean {clean[model]}")
            failures += checks.check_robustness(kind, rows)

        test = [checks.read_ppm(os.path.join(inputs.root, r.path)) for r in inputs.manifest.split_rows("test")]
        noise_seed = inputs.seed * 1_000_003
        for level in sm.SALT_PEPPER_LEVELS:
            for i, px in enumerate(test):
                out = sm.add_salt_pepper_noise(px, level, noise_seed + i)
                found = checks.check_salt_pepper(px, level, out)
                if found:
                    failures += found
                    break
        for level in sm.GAUSSIAN_LEVELS:
            outs = [sm.add_gaussian_noise(px, level, noise_seed + i) for i, px in enumerate(test)]
            if level == 0:
                if not all(_bitwise_equal(o, px) for o, px in zip(outs, test)):
                    failures.append("gaussian level 0 is not the identity")
                continue
            failures += checks.check_gaussian(level, [o.astype(int) - px for o, px in zip(outs, test)])
        log(f"check robustness: clean accuracy {clean}")
        return failures


class GradCamOp(Operation):
    """grad_cam on every image with both checkpoints, one timed call at a time."""

    def __init__(self, sm, inputs):
        super().__init__(sm, inputs)
        self.ns, self.first, self.mismatched = [], None, 0

    def round(self) -> None:
        grad_cam, clock = self.sm.grad_cam, time.perf_counter_ns
        outputs, ns = [], []
        for params in self.inputs.models.values():
            for image, label in self.inputs.images:
                self.attempted += 1
                start = clock()
                try:
                    heat = grad_cam(params, image, label)
                except Exception:
                    self.failed += 1
                    heat = None
                    if self.failed == 1:
                        log(f"bench: grad_cam failed:\n{traceback.format_exc()}")
                else:
                    ns.append(clock() - start)
                outputs.append(heat)
        if ns:
            self.ns += ns
            self.per_round.append(statistics.median(ns) / 1e6)
        if self.first is None:
            self.first = outputs
        else:
            self.mismatched += sum(
                (a is None) != (b is None) or (a is not None and not _bitwise_equal(a.grid, b.grid))
                for a, b in zip(self.first, outputs)
            )

    def metrics(self) -> dict:
        return {"gradcam_ms_p50": (statistics.median(self.ns) / 1e6, "ms")}

    def check(self) -> list:
        import checks

        if self.first is None:
            return ["explain: no pass completed"]
        inputs, failures = self.inputs, []
        if self.mismatched:
            failures.append(f"explain: {self.mismatched} heatmaps differ from the first pass")
        n = len(inputs.images)
        xs = [checks.to_input(checks.read_ppm(os.path.join(inputs.root, r.path))) for r in inputs.manifest.rows]
        for k, name in enumerate(inputs.models):
            heats = self.first[k * n : (k + 1) * n]
            if any(h is None for h in heats):
                continue
            p = checks.read_checkpoint(CHECKPOINTS[name])
            items = [(x, label, h) for x, (_, label), h in zip(xs, inputs.images, heats)]
            failures += checks.check_gradcam(f"{name} grad_cam", p, items)

        heats = self.first[: n]
        cue = []
        for row, heat in zip(inputs.manifest.rows, heats):
            if row.split == "test" and heat is not None:
                index = int(row.path.split("_")[-1].split(".")[0])
                layout = self.sm.data.image_layout(inputs.spec, row.label, index)
                cue.append((heat.upsampled, layout.cue_row, layout.cue_col))
        share = checks.cue_mass_wins(cue, inputs.spec.cue_size)
        log(f"check explain: masked cue-mass wins {share:.4f} of {len(cue)}")
        if share < checks.CUE_WIN_SHARE:
            failures.append(f"explain: cue-mass wins {share:.4f} below {checks.CUE_WIN_SHARE}")
        return failures


OPERATIONS = {"train": TrainOp, "robustness": SweepOp, "explain": GradCamOp}


def _bitwise_equal(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _check_forward(sm, inputs: Inputs, label: str, params, arrays: dict) -> list:
    """Program logits and evaluate() on the test split against the reference."""
    import checks

    rows = inputs.manifest.split_rows("test")
    xs = [checks.to_input(checks.read_ppm(os.path.join(inputs.root, r.path))) for r in rows]
    program_logits = [sm.predict(params, sm.Tensor(x)).data for x in xs]
    accuracy, _ = sm.evaluate(params, inputs.manifest, "test", inputs.root)
    failures = checks.check_forward(label, arrays, list(zip(xs, [r.label for r in rows])), program_logits, accuracy)
    for name, t in params.named_tensors().items():
        if not _bitwise_equal(t.data, arrays[name]):
            failures.append(f"{label}: tensor {name} differs from the stored values")
    return failures


def check_inputs(inputs: Inputs) -> list:
    import checks

    failures = []
    with open(os.path.join(BENCH_DIR, "checkpoints", "SHA256SUMS")) as f:
        for line in f:
            digest, name = line.split()
            if checks.sha256(os.path.join(BENCH_DIR, "checkpoints", name)) != digest:
                failures.append(f"checkpoint {name} does not match SHA256SUMS")
    splits = [len(inputs.manifest.split_rows(s)) for s in ("train", "val", "test")]
    if len(inputs.manifest.rows) != inputs.spec.n_images or splits != [480, 160, 160]:
        failures.append(f"dataset: {len(inputs.manifest.rows)} images split {splits}")
    return failures


def run_untraced(primary: Operation, others: list, seconds: float) -> dict:
    """Interleave whole rounds so each operation's share of the elapsed time
    tracks PRIMARY_SHARE for the workload's own operation and an equal split
    of the rest for the others; stop at the deadline once each has run."""
    shares = {primary: PRIMARY_SHARE}
    shares.update({op: (1.0 - PRIMARY_SHARE) / len(others) for op in others})
    spent = dict.fromkeys(shares, 0.0)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not all(spent.values()):
        op = min(shares, key=lambda o: spent[o] / shares[o])
        start = time.perf_counter()
        op.round()
        spent[op] += time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {}
    for op in shares:
        if not op.per_round:
            raise SystemExit(f"bench: every {type(op).__name__} round failed")
        metrics.update(op.metrics())
        log(f"{type(op).__name__}: {len(op.per_round)} rounds in {spent[op]:.2f} s, "
            f"per round {min(op.per_round):.6g} .. {max(op.per_round):.6g}")
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    return metrics


def run_traced(tracer, primary: Operation, seconds: float, setup_spans: int, setup_nodes: int, out_path: str) -> dict:
    """Alternate untraced and traced rounds; per-layer figures are the set-up
    once plus the mean traced round."""
    tracer.uninstall()
    untraced, traced = [], []
    round_nodes = 0
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        start = time.perf_counter()
        primary.round()
        untraced.append(time.perf_counter() - start)
        nodes = tracer.nodes
        tracer.install()
        start = time.perf_counter()
        primary.round()
        traced.append(time.perf_counter() - start)
        tracer.uninstall()
        round_nodes += tracer.nodes - nodes
    n = len(traced)
    setup = tracer.layer_totals(0, setup_spans)
    rounds = tracer.layer_totals(setup_spans)
    tracer.save(out_path)

    metrics = {}
    table = []
    for name in setup:
        calls = setup[name][0] + rounds[name][0] / n
        self_s = setup[name][1] + rounds[name][1] / n
        metrics[f"{name}.s"] = (self_s, "s")
        metrics[f"{name}.calls"] = (int(calls) if calls == int(calls) else calls, "count")
        table.append((self_s, name, calls))
    nodes = setup_nodes + round_nodes / n
    metrics["tensor.nodes"] = (int(nodes) if nodes == int(nodes) else nodes, "count")
    t_off, t_on = statistics.median(untraced), statistics.median(traced)
    metrics["trace.overhead_s"] = (t_on - t_off, "s")
    metrics["trace.overhead_pct"] = (100.0 * (t_on - t_off) / t_off, "%")

    log(f"per-layer figures: set-up once plus the mean of {n} traced rounds (self time)")
    log(f"{'layer':40s} {'calls':>10s} {'self s':>10s}")
    for self_s, name, calls in sorted(table, reverse=True):
        log(f"{name:40s} {calls:10.6g} {self_s:10.4f}")
    log(f"{'tensor.nodes':40s} {nodes:10.6g}")
    log(f"tracing overhead: {t_on - t_off:+.4f} s per round ({t_off:.4f} s untraced, {t_on:.4f} s traced)")
    log(f"spans written to {out_path}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(OPERATIONS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_PINS:
        os.environ[var] = "1"
    import spans  # imports numpy, which is not the program's set-up

    setup_start = time.perf_counter()
    sm = import_program()
    import_s = time.perf_counter() - setup_start

    work_dir = os.path.join(BENCH_DIR, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    tracer = None
    try:
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
        inputs = Inputs(sm, args.seed, work_dir)
        setup_s = time.perf_counter() - setup_start
        log("machine:", json.dumps(machine_record()))
        log(f"set-up: {setup_s:.4f} s, of which importing scenemask {import_s:.4f} s")

        ops = {name: cls(sm, inputs) for name, cls in OPERATIONS.items()}
        primary = ops[args.workload]
        if args.trace:
            out_dir = os.path.join(BENCH_DIR, "out")
            os.makedirs(out_dir, exist_ok=True)
            out_path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.npz")
            metrics = run_traced(tracer, primary, args.seconds, tracer.n_spans, tracer.nodes, out_path)
            ran = [primary]
        else:
            others = [op for op in ops.values() if op is not primary]
            metrics = run_untraced(primary, others, args.seconds)
            metrics["setup_s"] = (setup_s, "s")
            ran = list(ops.values())

        failures = check_inputs(inputs)
        for op in ran:
            failures += op.check()
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)

    for failure in failures:
        log("CHECK FAILED:", failure)
    attempted = sum(op.attempted for op in ran)
    failed = sum(op.failed for op in ran)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
