"""Benchmark evaluation, corpus statistics, gold building and dataset splits.

Prediction and gold files are JSON Lines.  An optional header, the first
record, declares the task (and, for the preference-disambiguation task, the
gold mode); every other record is a row, and gold rows come in flow order:

    {"task":"SPD","spd_mode":"cumulative"}
    {"dialog_id":"d00000","round":3,"payload":["red","yellow"]}

Payload types per task: SPD list of value strings, RRU list of object ids,
ACT an act name, RESPONSE an utterance string, RECOMMEND a list of object
ids or a raw utterance (ids are then extracted from "<@id>" tokens).
Missing prediction rows count as empty predictions, so partial submissions
remain scorable.

BLEU-4 here is corpus-level and unsmoothed: uniform 1..4-gram weights over
pooled modified precisions, times the standard brevity penalty
exp(1 - r/c) for c < r.  Tokenization is whitespace splitting.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from collections import Counter
from typing import TYPE_CHECKING, Iterable, Iterator

from .acts import ELICIT_ACTS, SALESPERSON_ACTS, SPD_MODES, SPLIT_NAMES, TASKS
from .errors import MalformedFile, ValidationError
from .jsonio import read_jsonl, write_jsonl

if TYPE_CHECKING:  # scoring never loads these; build_gold imports what it calls
    from .catalog import Scene
    from .engine import DialogFlow, JoinedTurns
    from .ontology import Ontology

Key = tuple[str, int]
ID_TOKEN = re.compile(r"<@(\d+)>")


def prf(tp: int, fp: int, fn: int) -> dict:
    """The micro or per-class block of a report: precision, recall and F1 of the counts, then
    the counts."""
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return {"precision": p, "recall": r, "f1": f1, "tp": tp, "fp": fp, "fn": fn}


def _macro(blocks: Iterable[dict]) -> dict:
    """The unweighted mean of the blocks' precision, recall and F1; zeros for no blocks. Each
    column is added up by `sum`, whose float total a running `+=` need not match bit for bit."""
    columns: dict[str, list[float]] = {"precision": [], "recall": [], "f1": []}
    for block in blocks:
        for key, column in columns.items():
            column.append(block[key])
    return {key: sum(column) / len(column) if column else 0.0 for key, column in columns.items()}


def eval_set_task(preds: dict[Key, object], gold: dict[Key, set], as_set=set) -> dict:
    """Micro-averaged PRF over element-level matches pooled across rounds; `as_set` reads a
    prediction's payload as a set, and a missing prediction is empty."""
    tp = fp = fn = 0
    for key, gold_set in gold.items():
        pred_set = as_set(preds.get(key, ()))
        tp += len(pred_set & gold_set)
        fp += len(pred_set - gold_set)
        fn += len(gold_set - pred_set)
    return prf(tp, fp, fn)


def eval_set_task_macro(preds: dict[Key, Iterable], gold: dict[Key, set]) -> dict:
    """Unweighted mean of per-round PRF (secondary to the micro headline)."""
    pred_sets = (set(preds.get(key, ())) for key in gold)
    return _macro(prf(len(p & g), len(p - g), len(g - p)) for p, g in zip(pred_sets, gold.values()))


def eval_act(preds: dict[Key, str], gold: dict[Key, str]) -> dict:
    """Micro, macro and per-class PRF over the salesperson acts.

    Counts come from one tally of (gold, predicted) acts; a key one side lacks has None there.
    """
    confusion = Counter((g, preds.get(key)) for key, g in gold.items())
    confusion.update((None, p) for key, p in preds.items() if key not in gold)
    classes = sorted(set(gold.values()) | set(preds.values()))
    counts = {cls: [0, 0, 0] for cls in classes}  # tp, fp, fn
    for (g, p), n in confusion.items():
        if g == p:
            counts[g][0] += n
            continue
        if p is not None:
            counts[p][1] += n
        if g is not None:
            counts[g][2] += n
    per_class = {cls: prf(*c) for cls, c in counts.items()}
    micro = prf(*(sum(c[i] for c in counts.values()) for i in range(3)))
    return {"micro": micro, "macro": _macro(per_class.values()), "per_class": per_class}


def _ngrams(t: list[str]) -> Counter:
    """All 1- to 4-grams of a sentence, counted at once; a gram's tuple length is its order."""
    return Counter(itertools.chain(zip(t), zip(t, t[1:]), zip(t, t[1:], t[2:]), zip(t, t[1:], t[2:], t[3:])))


def eval_response(preds: dict[Key, str], refs: dict[Key, str]) -> float:
    """Corpus-level unsmoothed BLEU-4 over aligned hypothesis/reference pairs.

    Each distinct pair is scored once, its integer counts weighted by how often it occurs.
    """
    if not refs:
        raise ValidationError("no reference utterances to score against")
    pairs = Counter(zip(map(preds.get, refs, itertools.repeat("")), refs.values()))
    clipped = [0] * 4
    totals = [0] * 4
    hyp_len = ref_len = 0
    for (hyp, ref), count in pairs.items():
        hyp_tokens = hyp.split()
        ref_tokens = ref.split()
        hyp_len += count * len(hyp_tokens)
        ref_len += count * len(ref_tokens)
        for n in range(4):
            grams = count * max(len(hyp_tokens) - n, 0)
            totals[n] += grams
            if hyp == ref:  # every hypothesis n-gram is matched in full
                clipped[n] += grams
        if hyp != ref:
            ref_grams = _ngrams(ref_tokens)
            for gram, hyp_count in _ngrams(hyp_tokens).items():  # clipped by the reference's count
                ref_count = ref_grams.get(gram)
                if ref_count:
                    clipped[len(gram) - 1] += count * min(hyp_count, ref_count)
    if any(t == 0 for t in totals) or any(c == 0 for c in clipped):
        return 0.0
    log_precision = sum(0.25 * math.log(c / t) for c, t in zip(clipped, totals))
    brevity = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return brevity * math.exp(log_precision)


def extract_item_ids(payload) -> set[int]:
    """Object ids from an explicit list or from "<@id>" tokens in an utterance."""
    if isinstance(payload, str):
        return {int(m) for m in ID_TOKEN.findall(payload)}
    return {int(v) for v in payload}


def eval_recommend(preds: dict[Key, object], gold_targets: dict[Key, set[int]]) -> dict:
    """Micro PRF over per-dialog recommended-id sets; unparseable preds are empty."""
    return eval_set_task(preds, gold_targets, extract_item_ids)


def corpus_stats(flows: Iterable[DialogFlow]) -> dict:
    """Corpus aggregates, in one pass; the per-round candidate series carries each dialog's
    last observed count forward, so the corpus curve is non-increasing. A turn's round is read
    off its position: turns k = 2r - 1 and 2r (from 1) are round r's."""
    n = n_utt = n_prefs = n_objects = 0
    round_acts: Counter = Counter()  # (round, act) of the salesperson turns
    totals: Counter = Counter()  # salesperson turns per round, acts outside the repertoire too
    steps: Counter = Counter()  # round -> change of the summed carried count at that round
    for n, flow in enumerate(flows, 1):  # a flow's turns alternate from round 1's salesperson turn
        n_utt += len(flow.turns)
        acts = [t["act"] for t in flow.turns[::2]]
        round_acts.update(enumerate(acts, 1))
        totals.update(range(1, len(acts) + 1))
        answered = acts[:len(flow.turns) // 2]  # a preference: the concept an answer names, or a prompt offers
        n_prefs += (answered.count("ASK_PREFERENCE") + answered.count("EXCLUDE_PREFERENCE")
                    + acts.count("PROMPT_PREFERENCE"))
        counts = flow.candidate_counts  # round 1's items, then round r's customer turn sets c_r
        n_objects += counts[0]
        steps[1] += counts[0]
        for rnd, (before, after) in enumerate(itertools.pairwise(counts), 1):
            steps[rnd] += after - before
    if not n:
        raise ValidationError("no dialogs")
    carried = itertools.accumulate(steps[rnd] for rnd in range(1, max(totals) + 1))  # summed per round

    act_rows = [
        {a: (round_acts[rnd, a] / totals[rnd] if totals[rnd] else 0.0) for a in SALESPERSON_ACTS}
        for rnd in range(1, 9)
    ]

    return {
        "n_dialogs": n,
        "n_utterances": n_utt,
        "avg_utterances_per_dialog": n_utt / n,
        "avg_salesperson_acts_per_dialog": sum(round_acts.values()) / n,
        "avg_subjective_preferences_per_dialog": n_prefs / n,
        "avg_objects_per_scene": n_objects / n,
        "candidate_items_by_round": [s / n for s in carried],
        "act_distribution_by_round": act_rows,  # rounds 1..8, rows sum to 1
    }


def split_corpus(n: int, ratios: tuple[float, float, float, float], seed: int) -> list[str]:
    """The split of each of n dialogs, by position: a seed-deterministic disjoint exhaustive
    partition into the four splits.

    Sizes are floor(ratio * n) with the remainder going to the splits with
    the largest fractional parts, so e.g. 100 dialogs at (.65, .05, .15, .15)
    come out exactly 65/5/15/15.
    """
    if len(ratios) != len(SPLIT_NAMES):
        raise ValidationError(f"need {len(SPLIT_NAMES)} ratios, got {len(ratios)}")
    if not all(0 <= r <= 1 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:  # NaN fails 0 <= r
        raise ValidationError(f"ratios must be finite, non-negative and sum to 1, got {ratios}")
    sizes = [int(n * r) for r in ratios]
    # Largest fractional remainders absorb the rounding gap (< 4 dialogs).
    by_fraction = sorted(range(len(ratios)), key=lambda i: (sizes[i] - n * ratios[i], i))
    for i in range(n - sum(sizes)):
        sizes[by_fraction[i]] += 1
    order = list(range(n))
    random.Random(seed).shuffle(order)
    split_of = [""] * n
    for i, name in zip(order, itertools.chain(*map(itertools.repeat, SPLIT_NAMES, sizes))):
        split_of[i] = name  # the first sizes[0] shuffled positions go to train, and so on
    return split_of


def _preference_clauses(turns: JoinedTurns) -> list[tuple[int, str, str, str]]:
    """(round, attribute, polarity, concept_id) of the customer's preference turns."""
    clauses = []
    for rnd, ((said, _), (act, slots)) in enumerate(zip(turns[::2], turns[1::2]), 1):
        if said in ELICIT_ACTS:  # answered by ANSWER_ or NEGATE_PREFERENCE, or RESPOND_PROMPT
            like = slots["accept"] if act == "RESPOND_PROMPT" else act == "ANSWER_PREFERENCE"
            clauses.append((rnd, slots["attribute"], "like" if like else "dislike", slots["concept_id"]))
    return clauses


def build_gold(
    flows: Iterable[tuple[str, DialogFlow]],
    ont: Ontology,
    scenes: dict[str, Scene],
    task: str,
    spd_mode: str = SPD_MODES[0],
) -> Iterator[tuple[Key, object]]:
    """Yield the `((dialog_id, round), payload)` gold rows of the (where, flow) pairs `read_flows`
    yields, for the task's eligible rounds, in flow order. Every task checks each flow with
    `engine.check_flow` before it reads one, and rejects a `dialog_id` it has already seen.

    SPD gold is recomputed from the preference clauses through the oracle
    (never read off the flow annotations): `cumulative` folds every clause on
    the elicited attribute up to the round, `scene_only` just that round's.
    """
    if task not in TASKS:
        raise ValidationError(f"unknown task {task!r}")
    if spd_mode not in SPD_MODES:
        raise ValidationError(f"unknown spd_mode {spd_mode!r}")
    from .catalog import items_in_region
    from .engine import check_flow
    from .ontology import spd_oracle

    seen: set[str] = set()
    for where, flow in flows:
        scene, turns = check_flow(where, flow, scenes, ont)
        dialog_id = flow.dialog_id
        if dialog_id in seen:
            raise ValidationError(f"{where}: dialog {dialog_id}: duplicate dialog_id")
        seen.add(dialog_id)
        if task == "SPD":
            clauses = _preference_clauses(turns)
            for rnd, attr, _, _ in clauses:
                keep = [(pol, cid) for r, a, pol, cid in clauses
                        if a == attr and (r == rnd or spd_mode == "cumulative" and r < rnd)]
                yield (dialog_id, rnd), sorted(spd_oracle(ont, scene, keep))
        elif task == "RRU":
            for rnd, turn in enumerate(flow.turns[::2], 1):
                if turn["act"] == "REFER_REGION":
                    yield (dialog_id, rnd), sorted(items_in_region(scene, turn["slots"]["region_label"]))
        elif task in ("ACT", "RESPONSE"):  # one field of each salesperson turn
            field = "act" if task == "ACT" else "utterance"
            for rnd, turn in enumerate(flow.turns[::2], 1):
                if field not in turn:
                    raise ValidationError(f"{where}: dialog {dialog_id}: RESPONSE gold needs realized flows")
                yield (dialog_id, rnd), turn[field]
        elif task == "RECOMMEND":  # the last RECOMMEND_ITEM turn's round, if the dialog has one
            rounds = [rnd for rnd, turn in enumerate(flow.turns[::2], 1) if turn["act"] == "RECOMMEND_ITEM"]
            if rounds:
                yield (dialog_id, rounds[-1]), [flow.target_object_id]


def write_predictions(path, header: dict, rows: Iterable[tuple[Key, object]]) -> int:
    """Write the header, then each `(key, payload)` row in the order given; returns the row count."""
    records = ({"dialog_id": d, "round": r, "payload": payload} for (d, r), payload in rows)
    return write_jsonl(path, itertools.chain([header], records)) - 1


def _is_list_of(payload, kind: type) -> bool:
    return isinstance(payload, list) and {kind}.issuperset(map(type, payload))  # exact: no bool for int


# Per task: the payload type check, and its name for error messages.
_PAYLOAD_TYPES = {
    "SPD": (lambda p: _is_list_of(p, str), "a list of value strings"),
    "RRU": (lambda p: _is_list_of(p, int), "a list of integer object ids"),
    "ACT": (lambda p: p in SALESPERSON_ACTS, "a salesperson act name"),
    "RESPONSE": (lambda p: isinstance(p, str), "an utterance string"),
    "RECOMMEND": (lambda p: isinstance(p, str) or _is_list_of(p, int), "a list of ids or an utterance"),
}


def read_predictions(path, task: str) -> tuple[dict, dict[Key, object]]:
    """Parse a prediction/gold file of `task`; returns (header, rows). Header may be {}.

    A header declaring another task or a payload of the wrong type is an error.
    """
    fits, expected = _PAYLOAD_TYPES[task]
    header: dict = {}
    rows: dict[Key, object] = {}
    for index, (line_no, record) in enumerate(read_jsonl(path)):
        if "dialog_id" not in record:
            if index == 0:
                header = record
                if header.get("task", task) != task:
                    raise ValidationError(f"{path} declares task {header['task']!r}, expected {task!r}")
                continue
            raise MalformedFile(f"{path}:{line_no}: row without dialog_id")
        dialog_id, rnd = record["dialog_id"], record.get("round")
        if not isinstance(dialog_id, str) or type(rnd) is not int or "payload" not in record:
            raise MalformedFile(
                f"{path}:{line_no}: a row needs a string dialog_id, an integer round and a payload"
            )
        if not fits(record["payload"]):
            raise MalformedFile(f"{path}:{line_no}: a {task} payload must be {expected}")
        if (dialog_id, rnd) in rows:
            raise ValidationError(f"{path}:{line_no}: duplicate key {(dialog_id, rnd)}")
        rows[(dialog_id, rnd)] = record["payload"]
    return header, rows
