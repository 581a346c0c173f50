"""Self-time arithmetic, thread-safe nesting and patch restoration of mvtrace."""

import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import mvbench  # noqa: E402
import mvtrace  # noqa: E402
from mvtrace import Span  # noqa: E402


def span(sid, parent, start, end, name="x", thread=0):
    return Span(sid, parent, name, float(start), float(end), 0, thread)


def test_nested_spans_on_one_thread():
    spans = [
        span(0, None, 0, 10),
        span(1, 0, 1, 4),
        span(2, 1, 2, 3),
        span(3, 0, 5, 9),
    ]
    got = mvtrace.self_times(spans)
    assert got == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})
    assert sum(got.values()) == pytest.approx(10.0)


def test_overlapping_spans_on_two_threads_split_shared_time():
    # root on the main thread; two workers whose spans overlap on [3, 7]
    spans = [
        span(0, None, 0, 10, thread=0),
        span(1, 0, 1, 7, thread=1),
        span(2, 1, 2, 5, thread=1),
        span(3, 0, 3, 9, thread=2),
    ]
    got = mvtrace.self_times(spans)
    # [0,1] root; [1,2] w1; [2,3] its child; [3,5] child and w2 halve;
    # [5,7] w1 and w2 halve; [7,9] w2; [9,10] root
    assert got == pytest.approx({0: 2.0, 1: 2.0, 2: 2.0, 3: 4.0})
    assert sum(got.values()) == pytest.approx(10.0)


def test_equal_timestamps_nest_parent_first():
    spans = [span(0, None, 0, 4), span(1, 0, 0, 4), span(2, 1, 4, 6)]
    got = mvtrace.self_times(spans)
    assert got == pytest.approx({0: 0.0, 1: 4.0, 2: 2.0})


def test_self_time_by_name_sums_spans_of_one_name():
    spans = [span(0, None, 0, 5, "a"), span(1, 0, 1, 2, "b"), span(2, 0, 3, 4, "b")]
    assert mvtrace.self_time_by_name(spans) == pytest.approx({"a": 3.0, "b": 2.0})


def test_worker_spans_nest_under_the_operation_across_threads():
    tracer = mvtrace.Tracer()
    leaf = tracer.wrap(lambda: sum(range(200)), "leaf")
    work = tracer.wrap(lambda n: [leaf() for _ in range(n)], "work")
    calls = 6
    workers = 8  # more workers than cores

    def pool():
        with ThreadPoolExecutor(max_workers=workers) as ex:
            futures = [ex.submit(work, calls) for _ in range(3 * workers)]
            return [f.result(timeout=30) for f in futures]

    root = tracer.wrap(pool, "root")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with tracer.operation(7):
            root()
    finally:
        sys.setswitchinterval(interval)

    by_id = {s.id: s for s in tracer.spans}
    assert len(by_id) == len(tracer.spans) == 1 + 3 * workers * (1 + calls)
    (root_span,) = [s for s in tracer.spans if s.name == "root"]
    for s in tracer.spans:
        assert s.op == 7
        if s.name == "work":
            assert s.parent == root_span.id
        if s.name == "leaf":
            parent = by_id[s.parent]
            assert parent.name == "work" and parent.thread == s.thread
            assert parent.start <= s.start and s.end <= parent.end
    total = sum(mvtrace.self_times(tracer.spans).values())
    assert total == pytest.approx(root_span.end - root_span.start, rel=1e-9)


def test_install_wraps_and_restore_puts_back_every_attribute():
    modules = mvbench.import_mvfuse(BENCH.parent)
    originals = {(m, a): getattr(modules[m], a) for m, a, *_ in mvtrace.PATCH_TABLE}
    tracer = mvtrace.Tracer().install(modules)
    try:
        for (m, a), fn in originals.items():
            assert getattr(modules[m], a) is not fn, f"{m}.{a} not wrapped"
    finally:
        tracer.restore()
    for (m, a), fn in originals.items():
        assert getattr(modules[m], a) is fn, f"{m}.{a} not restored"


def test_every_span_name_has_a_self_time_metric():
    names = {name for _, _, name, *_ in mvtrace.PATCH_TABLE}
    assert names == set(mvbench.SELF_TIME_METRIC)
    per_layer = {name for name, _ in mvbench.PER_LAYER}
    assert set(mvbench.SELF_TIME_METRIC.values()) <= per_layer
    assert set(mvbench.CALL_COUNT_METRIC.values()) <= per_layer


def test_counter_adds_file_sizes_per_operation(tmp_path):
    path = tmp_path / "blob"
    path.write_bytes(b"0123456789")
    tracer = mvtrace.Tracer()
    read = tracer.wrap(lambda p: Path(p).read_bytes(), "data.read", mvtrace.file_bytes)
    with tracer.operation(0):
        read(path)
        read(path)
    with tracer.operation(1):
        read(path)
    assert tracer.counts[(0, "data.read")] == 20
    assert tracer.counts[(1, "data.read")] == 10
