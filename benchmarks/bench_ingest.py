"""Ingest-plane throughput — drained batches must stay ≥ 10× per-announcement.

Times the per-announcement push path (every announcement classified on
multicast delivery) against the ingest plane (announcements land in one
columnar log; the consumer drains a merged, watermarked window and
classifies it in one vectorized pass) on a synthetic 64-node fleet.
Both arms share the batch-size-invariant ``classify_rows`` kernel, so
the harness asserts bit-identical class codes per announcement and
identical per-node fan-back state before any timing happens.

The ≥ 10× floor is the acceptance criterion and is enforced in *both*
modes — smoke shrinks the fleet and repeat count for CI runners but the
vectorization win is large enough (≈ 25× measured) that the gate holds
with margin.  Full mode writes the trajectory point ``BENCH_ingest.json``;
a second bench repeats the bit-identity contract in float32 tolerance
mode (``BENCH_ingest_f32.json``) — per dtype, drained-batch results must
match that dtype's own per-announcement path exactly.
"""

import json

from repro.serve.stream import run_ingest_benchmark

from conftest import emit

#: Full-mode fleet: the acceptance criterion's 64-node synthetic fleet.
FULL_NODES = 64
FULL_PER_NODE = 400
FULL_REPEATS = 5
#: Smoke-mode fleet (CI shared runners): smaller, fewer repeats.
SMOKE_NODES = 64
SMOKE_PER_NODE = 80
SMOKE_REPEATS = 3
#: The acceptance floor, enforced in both modes.
MIN_SPEEDUP = 10.0


def _run(classifier, smoke):
    return run_ingest_benchmark(
        classifier,
        num_nodes=SMOKE_NODES if smoke else FULL_NODES,
        per_node=SMOKE_PER_NODE if smoke else FULL_PER_NODE,
        repeats=SMOKE_REPEATS if smoke else FULL_REPEATS,
        seed=0,
    )


def test_ingest_throughput(classifier, out_dir, smoke):
    result = _run(classifier, smoke)

    payload = dict(result.to_dict(), mode="smoke" if smoke else "full", floor=MIN_SPEEDUP)
    emit(out_dir, "BENCH_ingest.json", json.dumps(payload, indent=2, sort_keys=True))

    assert result.bit_identical, "drained-batch results diverged from the per-announcement path"
    assert result.speedup >= MIN_SPEEDUP, (
        f"ingest speedup {result.speedup:.2f}x below the {MIN_SPEEDUP:.0f}x floor "
        f"(per-announcement {result.per_announcement_ms:.2f} ms vs ingest "
        f"{result.ingest_ms:.2f} ms over {result.num_announcements} announcements / "
        f"{result.drains} drains)"
    )


def test_ingest_bit_identity_float32(classifier_f32, out_dir, smoke):
    result = _run(classifier_f32, smoke)

    payload = dict(result.to_dict(), mode="smoke" if smoke else "full", floor=MIN_SPEEDUP)
    emit(out_dir, "BENCH_ingest_f32.json", json.dumps(payload, indent=2, sort_keys=True))

    assert result.bit_identical, (
        "float32 drained-batch results diverged from the float32 per-announcement path"
    )
    assert result.speedup >= MIN_SPEEDUP, (
        f"float32 ingest speedup {result.speedup:.2f}x below the {MIN_SPEEDUP:.0f}x floor"
    )
