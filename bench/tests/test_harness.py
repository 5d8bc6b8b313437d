"""Tests of the benchmark's own helpers. Run with
``python -m pytest bench/tests`` from the repository root; they are not
part of the package's test suite."""

import contextlib
import io
import json
from fractions import Fraction

import pytest

import run
import verify
import workloads
from tracing import Tracer


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


# -- tail percentile and rescaling ------------------------------------------


@pytest.mark.parametrize(
    "count, level",
    [(20, 50), (52, 80), (99, 85), (100, 90), (199, 90), (200, 95), (1000, 99), (19, 100)],
)
def test_tail_level_keeps_ten_samples_beyond(count, level):
    assert run.tail_level(count) == level
    if level < 100:
        rank = -(-level * count // 100)  # nearest rank, rounded up
        assert count - rank >= run.TAIL_BEYOND


def test_percentile_is_nearest_rank_and_order_free():
    samples = list(range(100, 0, -1))
    assert run.percentile(samples, 90) == 90
    assert run.percentile(samples, 50) == 50
    assert run.percentile([3.0], 80) == 3.0


def test_rescale_uses_the_median_of_nearby_references():
    ref = run.REFERENCE_MS
    refs = [ref, ref, ref, 2 * ref, 2 * ref, 2 * ref]
    window = run.REFERENCE_WINDOW
    scaled = run.rescale([10, 10, 10, 20, 20, 20], refs)
    assert scaled[0] == 10 and scaled[-1] == 10
    # a request whose window straddles the jump takes the median reference
    middle = sorted(refs[3 - window:3 + window + 1])[window]
    assert scaled[3] == 20 * ref / middle


# -- spans and self time -----------------------------------------------------


def test_self_time_subtracts_nested_children():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 6]
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
    root = tracer.open("root", "x")
    a = tracer.open("a", "y")
    a1 = tracer.open("a1", "y")
    tracer.close(a1)
    tracer.close(a)
    b = tracer.open("b", "z")
    tracer.close(b)
    tracer.close(root)
    assert tracer.self_times() == [6, 2, 1, 1]
    assert tracer.layer_ms()["x"] == 6000
    assert tracer.layer_ms()["y"] == 3000
    assert tracer.children(root) == [a, b]


def test_self_time_counts_overlapping_children_once():
    tracer = Tracer()
    tracer.spans = [
        ["p", None, 0.0, 10.0, None, 0],
        ["c1", None, 1.0, 5.0, 0, 0],
        ["c2", None, 3.0, 7.0, 0, 0],
        ["c3", None, 9.0, 12.0, 0, 0],  # clipped to the parent's end
    ]
    assert tracer.self_times()[0] == pytest.approx(10 - 6 - 1)


def test_instrument_gives_nested_spans_and_restores(example_game):
    import pgindex.indices as indices

    original = indices.minimal_critical_vectors
    tracer = Tracer()
    tracer.instrument()
    try:
        indices.public_good_value_jk(example_game)
    finally:
        tracer.restore()
    assert indices.minimal_critical_vectors is original
    names = [span[0] for span in tracer.spans]
    assert names == ["public_good_value_jk", "minimal_critical_vectors"]
    assert tracer.spans[1][4] == 0  # parent is the value span
    assert tracer.counters["critical.structures_found"] == 5


def test_count_only_target_leaves_its_time_in_the_caller(example_game):
    import pgindex.indices as indices

    tracer = Tracer()
    tracer.instrument()
    try:
        indices.jk_potential_recursive(example_game)
    finally:
        tracer.restore()
    assert tracer.counters["indices.subgames"] == 2 ** 3 - 1
    assert "subgame" not in [span[0] for span in tracer.spans]
    recursive = [s for s in tracer.spans if s[0] == "jk_potential_recursive"]
    assert len(recursive) == 1
    # the subgame builds are not children, so they count as recursion time
    sid = tracer.spans.index(recursive[0])
    kids = [tracer.spans[c] for c in tracer.children(sid)]
    covered = sum(k[3] - k[2] for k in kids)
    own = tracer.self_times()[sid]
    assert own == pytest.approx(recursive[0][3] - recursive[0][2] - covered)
    assert tracer.layer_ms()["indices.recursive_ms"] == pytest.approx(own * 1000)


@pytest.fixture
def example_game():
    from pgindex import make_weighted_game

    return make_weighted_game((3, 2, 1), (7, 12), 3, 3)


# -- generator determinism ---------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_files(name):
    a, b = workloads.build(name, 7), workloads.build(name, 7)
    assert a.files == b.files
    assert [r.rid for r in a.requests] == [r.rid for r in b.requests]
    assert workloads.build(name, 8).files != a.files


def test_baseline_cases_are_fixed_entries():
    files = workloads.build("jk_weighted", 3).files
    assert json.loads(files["g83.json"])["weighted"] == {
        "weights": ["3", "2", "2", "1", "1", "1", "1", "1"], "thresholds": ["7", "12"],
    }
    assert files["example33.json"] == workloads.EXAMPLE33_TEXT
    assert json.loads(files["maj83.json"])["weighted"]["thresholds"] == ["9"]
    assert json.loads(files["maj73.json"])["weighted"]["thresholds"] == ["8"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_committed_digest_matches_default_seed_files(name):
    pinned = json.loads((run.DIGESTS / f"{name}.json").read_text())
    workload = workloads.build(name, run.DEFAULT_SEED)
    assert pinned["files"] == run.files_digest(workload.files)
    assert set(pinned["responses"]) == {r.rid for r in workload.requests}


# -- verification catches corrupted responses ------------------------------


def respond(workload, req, tmp_path):
    """Run one request in-process, as the traced run does."""
    import pgindex.cli as cli

    for name, text in workload.files.items():
        (tmp_path / name).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.chdir(tmp_path):
        args = cli.build_parser().parse_args(req.argv)
        request = cli.AnalysisRequest(
            command=args.command, input_paths=tuple(args.paths), format=args.format,
            family=args.family,
        )
        status = cli.run(request, out=out, err=err)
    return status, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def example_responses(tmp_path_factory):
    workload = workloads.build("jk_weighted", 1)
    tmp = tmp_path_factory.mktemp("files")
    wanted = {"analyze/machine/example33.json", "analyze/table/example33.json"}
    reqs = {r.rid: r for r in workload.requests if r.rid in wanted}
    responses = {rid: respond(workload, req, tmp) for rid, req in reqs.items()}
    return workload, reqs, responses


def checker(workload):
    return verify.Verifier(workload, run.load_package())


def test_real_responses_pass(example_responses):
    workload, reqs, responses = example_responses
    verifier = checker(workload)
    for rid, req in reqs.items():
        assert verifier.check(req, *responses[rid], twin=responses[req.twin]) == []


def test_corrupted_machine_value_is_caught(example_responses):
    workload, reqs, responses = example_responses
    req = reqs["analyze/machine/example33.json"]
    status, out, err = responses[req.rid]
    doc = json.loads(out)
    doc["reports"][0]["player_values"][0] = "7"
    problems = checker(workload).check(req, status, json.dumps(doc), err)
    assert any("potential_value values differ" in p for p in problems)


def test_corrupted_table_is_caught_by_expectation_and_twin(example_responses):
    workload, reqs, responses = example_responses
    req = reqs["analyze/table/example33.json"]
    status, out, err = responses[req.rid]
    bad = out.replace("potential = 6", "potential = 7")
    assert bad != out
    problems = checker(workload).check(req, status, bad, err, twin=responses[req.twin])
    assert any("potential differs from expected" in p for p in problems)
    assert any("between table and machine" in p for p in problems)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda s, o, e: (1, o, e), "exit status"),
        (lambda s, o, e: (s, o, "Traceback (most recent call last):\n"), "traceback"),
        (lambda s, o, e: (s, o[: len(o) // 2], e), "unparsable"),
    ],
)
def test_broken_responses_are_caught(example_responses, mutate, message):
    workload, reqs, responses = example_responses
    req = reqs["analyze/machine/example33.json"]
    problems = checker(workload).check(req, *mutate(*responses[req.rid]))
    assert any(message in p for p in problems)


def test_mcc_rgc_cross_check_catches_disagreement():
    workload = workloads.build("coalition", 1)
    req = next(
        r for r in workload.requests
        if r.rid.startswith("analyze-mcc/machine/") and workload.specs[r.games[0]].monotone
    )
    doc = {"reports": [{"variant": "tu_pgv", "player_values": [], "potential": "0",
                        "lambda_total": "0", "listing": [{"coalition": [1], "worth": "1"}]}]}
    other = dict(doc, reports=[dict(doc["reports"][0], listing=[])])
    responses = {
        req.rid: (0, json.dumps(doc), ""),
        req.rid.replace("analyze-mcc/", "analyze-rgc/"): (0, json.dumps(other), ""),
    }
    assert req.rid in checker(workload).cross_check(responses)


def test_table_parser_reads_values_and_listing():
    text = (
        "(3,3) game on 2 players\n\n"
        "minimal critical vectors (2)\n"
        "  vector  worth\n"
        "  (0,1)   1\n"
        "  (2,0)   2\n\n"
        "potential = 3\n"
        "distributed total = 3\n\n"
        "  player  potential_value  normalized_variant\n"
        "  1       2                2/3 (~0.666667)\n"
        "  2       1                1/3 (~0.333333)\n"
    )
    got = verify.parse_table("analyze", text)
    assert got["listing"] == [((0, 1), 1), ((2, 0), 2)]
    assert got["potential"] == 3 and got["lambda"] == 3
    assert got["values"]["normalized_variant"] == [Fraction(2, 3), Fraction(1, 3)]
