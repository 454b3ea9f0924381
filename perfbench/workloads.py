"""The benchmark workloads: their set-up, timed chain and output checks.

Every workload runs on the bundled fixture pack at the same corpus size
N_DIALOGS and times stages at `--jobs 1`.  A timed `--jobs N` workload was
left out: on a 2-vCPU machine its pool measured the scheduler, not the
program.  `--jobs N` still runs, untimed, as the jobs-invariance check of
`derive`.  All inputs derive from the workload seed; the program only sees
the generated files.

A check is a named property of the outputs, not a committed hash, so an
intended change of the output bytes does not read as a failure.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path

from stages import Stage, artifact_files, run_inprocess, run_subprocess

N_DIALOGS = 500
TASKS = ("spd", "rru", "act", "recommend", "response")
MIN_ACCEPTED_RATIO = 0.99


@dataclass
class Ctx:
    """Paths and parameters of one benchmark run."""

    root: Path
    work: Path
    seed: int
    n: int = N_DIALOGS
    # --jobs of the jobs-invariance check
    jobs: int = field(default_factory=lambda: len(os.sched_getaffinity(0)))
    # sha256 of the first repeat's outputs; later repeats must match it
    first_digest: str | None = None

    @property
    def setup_dir(self) -> Path:
        return self.work / "setup"

    def data(self, name: str) -> str:
        return str(self.root / "data" / name)

    def catalog_flags(self) -> tuple[str, ...]:
        return (
            "--scenes", self.data("scenes.json"),
            "--metadata", self.data("metadata.json"),
            "--ontology", self.data("ontology.json"),
        )

    def validate(self) -> Stage:
        return Stage(("validate", *self.catalog_flags(),
                      "--policy", self.data("policy.json"), "--templates", self.data("templates.json")))

    def simulate(self, out: Path, jobs: int = 1) -> Stage:
        return Stage(("simulate", *self.catalog_flags(), "--policy", self.data("policy.json"),
                      "--n", str(self.n), "--seed", str(self.seed), "--jobs", str(jobs), "--out", str(out)))

    def realize(self, flows: Path, out: Path, seed: int, jobs: int = 1) -> Stage:
        return Stage(("realize", *self.catalog_flags(), "--templates", self.data("templates.json"),
                      "--flows", str(flows), "--seed", str(seed), "--jobs", str(jobs), "--out", str(out)))

    def gold(self, flows: Path, task: str, out: Path) -> Stage:
        return Stage(("gold", *self.catalog_flags(), "--flows", str(flows), "--task", task, "--out", str(out)))

    def eval(self, task: str, pred: Path, gold: Path, out: Path) -> Stage:
        return Stage(("eval", "--task", task, "--pred", str(pred), "--gold", str(gold), "--out", str(out)))


Check = tuple[str, bool]


# ---------------------------------------------------------------- checks

def count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def accepted_ratio(path: Path) -> float:
    outcomes = [json.loads(line)["outcome"] for line in open(path, encoding="utf-8") if line.strip()]
    return sum(o == "success" for o in outcomes) / max(len(outcomes), 1)


def digest(paths: list[Path]) -> str:
    """sha256 over the names and bytes of the data artifacts under `paths`."""
    h = hashlib.sha256()
    for f in artifact_files(paths):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def flow_checks(ctx: Ctx, flows: Path, label: str) -> list[Check]:
    return [
        (f"{label}: flow count == {ctx.n}", flows.is_file() and count_lines(flows) == ctx.n),
        (f"{label}: accepted ratio >= {MIN_ACCEPTED_RATIO}",
         flows.is_file() and accepted_ratio(flows) >= MIN_ACCEPTED_RATIO),
    ]


def headline(report: Path, task: str) -> float:
    data = json.loads(report.read_text(encoding="utf-8"))
    return data["bleu4"] if task == "response" else data["micro"]["f1"]


def gold_self_checks(ctx: Ctx, gold_dir: Path, check_dir: Path) -> list[Check]:
    """Every task scores its gold file against itself at F1/BLEU = 1.0."""
    check_dir.mkdir(parents=True, exist_ok=True)
    checks = []
    for task in TASKS:
        gold = gold_dir / f"gold_{task}.jsonl"
        report = check_dir / f"self_{task}.json"
        ok = run_inprocess(ctx.eval(task, gold, gold, report)) == 0 and headline(report, task) == 1.0
        checks.append((f"gold {task} scores 1.0 against itself", ok))
    return checks


def jobs_checks(ctx: Ctx, flows: Path, check_dir: Path) -> list[Check]:
    """simulate and realize at --jobs ctx.jobs, untimed, into `check_dir`.

    The flows must equal the --jobs 1 `flows` byte for byte; the realized file
    is compared with the chain's --jobs 1 realize in `Derive.chain_checks`.
    """
    check_dir.mkdir(parents=True, exist_ok=True)
    log = ctx.work / "stderr.log"
    sim = run_subprocess(ctx.simulate(check_dir / "flows.jsonl", jobs=ctx.jobs), ctx.root, log)
    real = run_subprocess(ctx.realize(flows, check_dir / "realized.jsonl", ctx.seed, jobs=ctx.jobs), ctx.root, log)
    return [
        (f"simulate --jobs {ctx.jobs} exits 0", sim.rc == 0),
        (f"realize --jobs {ctx.jobs} exits 0", real.rc == 0),
        (f"simulate --jobs {ctx.jobs} byte-identical to --jobs 1",
         digest([check_dir / "flows.jsonl"]) == digest([flows])),
    ]


def repeat_check(ctx: Ctx, outputs: list[Path]) -> Check:
    """Each repeat of the chain reproduces the first repeat's bytes (same seed)."""
    d = digest(outputs)
    if ctx.first_digest is None:
        ctx.first_digest = d
    return ("chain output identical across repeats", d == ctx.first_digest)


# ------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json records why it was chosen."""

    name: str

    def setup(self, ctx: Ctx) -> list[Stage]:
        """Stages that build the chain's inputs in ctx.setup_dir."""
        raise NotImplementedError

    def after_setup(self, ctx: Ctx) -> list[Check]:
        """Set-up work done by the benchmark itself (part of setup_s); returns its checks."""
        return []

    def setup_checks(self, ctx: Ctx) -> list[Check]:
        return []

    def chain(self, ctx: Ctx, out: Path) -> list[Stage]:
        raise NotImplementedError

    def chain_checks(self, ctx: Ctx, out: Path, first: bool) -> list[Check]:
        raise NotImplementedError


class Simulate(Workload):
    def setup(self, ctx):
        return [ctx.validate()]

    def chain(self, ctx, out):
        return [ctx.simulate(out / "flows.jsonl")]

    def chain_checks(self, ctx, out, first):
        flows = out / "flows.jsonl"
        if first:
            return flow_checks(ctx, flows, "simulate") + [repeat_check(ctx, [flows])]
        return [("simulate: flow count", count_lines(flows) == ctx.n), repeat_check(ctx, [flows])]


class Derive(Workload):
    def setup(self, ctx):
        return [ctx.validate(), ctx.simulate(ctx.setup_dir / "flows.jsonl")]

    def setup_checks(self, ctx):
        flows = ctx.setup_dir / "flows.jsonl"
        return flow_checks(ctx, flows, "set-up") + jobs_checks(ctx, flows, ctx.work / "jobs")

    def chain(self, ctx, out):
        flows, realized = ctx.setup_dir / "flows.jsonl", out / "realized.jsonl"
        stages = [ctx.realize(flows, realized, ctx.seed)]
        for task in TASKS:
            source = realized if task == "response" else flows
            stages.append(ctx.gold(source, task, out / f"gold_{task}.jsonl"))
        stages.append(Stage(("split", "--flows", str(realized), "--seed", str(ctx.seed),
                             "--out-dir", str(out / "splits"))))
        stages.append(Stage(("stats", "--flows", str(flows), "--out", str(out / "stats.json"))))
        return stages

    def chain_checks(self, ctx, out, first):
        stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
        split_total = sum(count_lines(p) for p in (out / "splits").glob("*.jsonl"))
        checks = [
            ("realize: dialog count", count_lines(out / "realized.jsonl") == ctx.n),
            ("split: sizes sum to N", split_total == ctx.n),
            ("stats: n_dialogs == N", stats["n_dialogs"] == ctx.n),
            repeat_check(ctx, [out]),
        ]
        if first:
            checks += gold_self_checks(ctx, out, ctx.work / "checks")
            checks.append((f"realize --jobs {ctx.jobs} byte-identical to --jobs 1",
                           digest([ctx.work / "jobs" / "realized.jsonl"]) == digest([out / "realized.jsonl"])))
        return checks


class Score(Workload):
    """Gold files plus seeded, imperfect predictions; the chain is `eval` on every task."""

    def setup(self, ctx):
        s = ctx.setup_dir
        flows, realized, alt = s / "flows.jsonl", s / "realized.jsonl", s / "realized_alt.jsonl"
        stages = [
            ctx.validate(),
            ctx.simulate(flows),
            ctx.realize(flows, realized, ctx.seed),
            ctx.realize(flows, alt, ctx.seed + 1),
        ]
        for task in TASKS:
            stages.append(ctx.gold(realized if task == "response" else flows, task, s / f"gold_{task}.jsonl"))
        # RESPONSE predictions: the same dialogs realized at another seed.
        stages.append(ctx.gold(alt, "response", s / "pred_response.jsonl"))
        return stages

    def after_setup(self, ctx):
        make_predictions(ctx.setup_dir, random.Random(f"perfbench-predictions-{ctx.seed}"))
        return [("score predictions written", all((ctx.setup_dir / f"pred_{t}.jsonl").is_file() for t in TASKS))]

    def setup_checks(self, ctx):
        return flow_checks(ctx, ctx.setup_dir / "flows.jsonl", "set-up") + gold_self_checks(
            ctx, ctx.setup_dir, ctx.work / "checks")

    def chain(self, ctx, out):
        s = ctx.setup_dir
        return [ctx.eval(t, s / f"pred_{t}.jsonl", s / f"gold_{t}.jsonl", out / f"report_{t}.json")
                for t in TASKS]

    def chain_checks(self, ctx, out, first):
        checks = [(f"eval {t}: imperfect predictions score inside (0, 1)",
                   0.0 < headline(out / f"report_{t}.json", t) < 1.0) for t in TASKS]
        return checks + [repeat_check(ctx, [out])]


WORKLOADS = {w.name: w for w in (Simulate("simulate"), Derive("derive"), Score("score"))}


# ----------------------------------------------------------- predictions

def _read_rows(path: Path) -> tuple[dict, list[dict]]:
    lines = [json.loads(line) for line in open(path, encoding="utf-8") if line.strip()]
    if lines and "dialog_id" not in lines[0]:
        return lines[0], lines[1:]
    return {}, lines


def _write_rows(path: Path, header: dict, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in [header, *rows]:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def _perturb_set(payload: list, universe: list, rng: random.Random) -> list:
    """Drop one element (30%) or add a distractor (20%); else keep the gold set."""
    out = list(payload)
    u = rng.random()
    if u < 0.3 and len(out) > 1:
        out.pop(rng.randrange(len(out)))
    elif u < 0.5:
        extra = [v for v in universe if v not in out]
        if extra:
            out.append(extra[rng.randrange(len(extra))])
    return out


def make_predictions(setup: Path, rng: random.Random) -> None:
    """Seeded, imperfect prediction files next to the gold files.

    SPD and RRU drop or add set elements, ACT swaps a quarter of the acts,
    RECOMMEND gives raw utterances (so `<@id>` extraction runs): 60% the
    utterance of the final round, else one of another round of the dialog.
    """
    for task in ("spd", "rru"):
        header, rows = _read_rows(setup / f"gold_{task}.jsonl")
        universe = sorted({v for r in rows for v in r["payload"]}, key=str)
        _write_rows(setup / f"pred_{task}.jsonl", header, [
            dict(r, payload=_perturb_set(r["payload"], universe, rng)) for r in rows])

    header, rows = _read_rows(setup / "gold_act.jsonl")
    acts = sorted({r["payload"] for r in rows})
    preds = []
    for r in rows:
        act = r["payload"]
        if rng.random() < 0.25:
            act = rng.choice([a for a in acts if a != act] or acts)
        preds.append(dict(r, payload=act))
    _write_rows(setup / "pred_act.jsonl", header, preds)

    _, alt_rows = _read_rows(setup / "pred_response.jsonl")
    by_dialog: dict[str, list[dict]] = {}
    for r in alt_rows:
        by_dialog.setdefault(r["dialog_id"], []).append(r)
    header, rows = _read_rows(setup / "gold_recommend.jsonl")
    preds = []
    for r in rows:
        turns = by_dialog[r["dialog_id"]]
        pick = turns[-1] if rng.random() < 0.6 else turns[rng.randrange(len(turns))]
        preds.append(dict(r, payload=pick["payload"]))
    _write_rows(setup / "pred_recommend.jsonl", header, preds)
