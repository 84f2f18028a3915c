"""Vectorized-vs-reference engine equivalence (hypothesis).

The vectorized sweep engine must be indistinguishable from the event-heap
oracle.  Three strategies probe it:

* *Binary-fraction programs*: durations are multiples of 1/256, so every
  prefix sum both engines compute is exact in float64 and agreement must
  be **interval-exact** — identical counts, bounds, phase objects, and
  makespan, not merely close.
* *Arbitrary-float programs* (reusing the looser generator) check the
  ≤1e-9 contract from the issue on bounds, makespan, and downstream
  energy through the full executor pipeline.
* *Shared-phase programs* draw every position from a small pool of
  ``Phase`` objects, reused within and across ranks — the form every
  benchmark builder emits — so identity dedupe must not merge what the
  reference engine keeps apart.

The builders' shared sequences are also checked for aliasing: each rank
owns its list, so appending to one program never changes another.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.benchmarks import (
    EffectiveBandwidthBenchmark,
    HPLBenchmark,
    IOzoneBenchmark,
    RandomAccessBenchmark,
    StreamBenchmark,
)
from repro.cluster import presets
from repro.sim import (
    ClusterExecutor,
    RankProgram,
    SimulationEngine,
    barrier,
    breadth_first_placement,
    comm_phase,
    compute_phase,
    idle_phase,
    io_phase,
    memory_phase,
)

#: Multiples of 1/256 are exact binary fractions: sums of them round-trip
#: through float64 without error, so interval bounds must match exactly.
binary_durations = st.integers(min_value=0, max_value=2048).map(lambda n: n / 256.0)
#: Resource fractions on a coarse exact grid.
fractions = st.integers(min_value=0, max_value=16).map(lambda n: n / 16.0)
#: (constructor index, duration, fraction) — mixed phase kinds incl. idle.
phase_specs = st.tuples(st.integers(min_value=0, max_value=4), binary_durations, fractions)


def _build_phase(spec, scale=1.0):
    kind, duration, fraction = spec
    duration *= scale
    if kind == 0:
        return compute_phase(duration, intensity=max(fraction, 1 / 16))
    if kind == 1:
        return memory_phase(duration, memory=fraction)
    if kind == 2:
        return io_phase(duration, storage=fraction)
    if kind == 3:
        return comm_phase(duration, nic=fraction)
    return idle_phase(duration)


@st.composite
def random_programs(draw):
    """Random rank programs: mixed phase kinds, zero-duration phases, a
    shared barrier count, and optionally one skewed straggler rank whose
    phases run 32x longer (scaling by 32 preserves binary exactness)."""
    num_ranks = draw(st.integers(min_value=1, max_value=8))
    num_barriers = draw(st.integers(min_value=0, max_value=4))
    straggler = draw(st.integers(min_value=-1, max_value=num_ranks - 1))
    programs = []
    for rank in range(num_ranks):
        scale = 32.0 if rank == straggler else 1.0
        program = RankProgram(rank=rank)
        for segment in range(num_barriers + 1):
            for spec in draw(st.lists(phase_specs, min_size=0, max_size=3)):
                program.append(_build_phase(spec, scale))
            if segment < num_barriers:
                program.append(barrier())
        programs.append(program)
    return programs


@st.composite
def shared_phase_programs(draw):
    """Programs whose positions are drawn from a pool of a few ``Phase``
    objects, repeated within and across ranks.  Either every rank runs one
    shared sequence (as the builders do) or each draws its own; an
    optional straggler rank mixes in a 32x-longer pool of its own."""
    specs = draw(st.lists(phase_specs, min_size=1, max_size=4))
    pool = [_build_phase(spec) for spec in specs]
    slow_pool = pool + [_build_phase(spec, 32.0) for spec in specs]
    num_ranks = draw(st.integers(min_value=1, max_value=8))
    num_barriers = draw(st.integers(min_value=0, max_value=4))
    straggler = draw(st.integers(min_value=-1, max_value=num_ranks - 1))

    def sequence(phases):
        segment = st.lists(st.sampled_from(phases), min_size=0, max_size=4)
        out = []
        for s in range(num_barriers + 1):
            out.extend(draw(segment))
            if s < num_barriers:
                out.append(barrier())
        return out

    shared = sequence(pool) if draw(st.booleans()) else None
    programs = []
    for rank in range(num_ranks):
        if rank == straggler:
            phases = sequence(slow_pool)
        else:
            phases = list(shared) if shared is not None else sequence(pool)
        programs.append(RankProgram(rank=rank, phases=phases))
    return programs


def assert_engines_interval_exact(programs):
    """Both engines must emit identical interval structure."""
    arrays = SimulationEngine(programs, engine="vectorized").run_arrays()
    vectorized = arrays.to_interval_lists()
    reference = SimulationEngine(programs, engine="reference").run()
    ref_makespan = SimulationEngine(programs, engine="reference").makespan(reference)
    assert arrays.makespan == pytest.approx(ref_makespan, rel=1e-9, abs=1e-9)
    assert len(vectorized) == len(reference)
    for rank, (got, want) in enumerate(zip(vectorized, reference)):
        assert len(got) == len(want), f"rank {rank}: interval count differs"
        for iv_v, iv_r in zip(got, want):
            assert iv_v.t_start == pytest.approx(iv_r.t_start, rel=1e-9, abs=1e-9)
            assert iv_v.t_end == pytest.approx(iv_r.t_end, rel=1e-9, abs=1e-9)
            assert iv_v.phase is iv_r.phase, (
                f"rank {rank}: phase object identity lost ({iv_v.phase} vs {iv_r.phase})"
            )


class TestIntervalEquivalence:
    @given(programs=random_programs())
    @settings(max_examples=120, deadline=None)
    def test_interval_exact_agreement(self, programs):
        """Random mixed-kind programs: interval-exact agreement, including
        zero-duration phases (dropped identically) and straggler skew."""
        assert_engines_interval_exact(programs)

    @given(programs=random_programs())
    @settings(max_examples=60, deadline=None)
    def test_columnar_equals_object_view(self, programs):
        """run() (compat view) and run_arrays() describe the same run."""
        engine = SimulationEngine(programs, engine="vectorized")
        arrays = engine.run_arrays()
        lists = engine.run()
        flat_from_arrays = [
            (iv.rank, iv.t_start, iv.t_end, id(iv.phase))
            for per_rank in arrays.to_interval_lists()
            for iv in per_rank
        ]
        flat_from_lists = [
            (iv.rank, iv.t_start, iv.t_end, id(iv.phase))
            for per_rank in lists
            for iv in per_rank
        ]
        assert flat_from_arrays == flat_from_lists
        assert int(arrays.counts_per_rank().sum()) == len(arrays)

    @given(programs=random_programs())
    @settings(max_examples=60, deadline=None)
    def test_makespan_consistency(self, programs):
        """makespan() agrees across engines and both interval forms."""
        vec = SimulationEngine(programs, engine="vectorized")
        ref = SimulationEngine(programs, engine="reference")
        arrays = vec.run_arrays()
        assert vec.makespan(arrays) == arrays.makespan
        assert arrays.makespan == pytest.approx(
            ref.makespan(ref.run()), rel=1e-9, abs=1e-9
        )


class TestSharedPhases:
    @given(programs=shared_phase_programs())
    @settings(max_examples=120, deadline=None)
    def test_interval_exact_agreement(self, programs):
        """Phase objects reused at several positions and across ranks,
        with and without a straggler: interval-exact agreement."""
        assert_engines_interval_exact(programs)

    @pytest.mark.parametrize(
        "member",
        [
            HPLBenchmark(sizing=("fixed", 4480), rounds=2),
            StreamBenchmark(target_seconds=10),
            IOzoneBenchmark(target_seconds=10),
            RandomAccessBenchmark(target_seconds=10),
            EffectiveBandwidthBenchmark(target_seconds=10),
        ],
        ids=lambda b: b.name,
    )
    def test_builder_programs_do_not_alias(self, member):
        """Appending to one rank's program leaves every other rank's alone."""
        built = member.build(ClusterExecutor(presets.fire(num_nodes=2), rng=7), 2)
        before = list(built.programs[1].phases)
        built.programs[0].append(compute_phase(1.0))
        assert built.programs[1].phases == before
        assert len(built.programs[0].phases) == len(before) + 1


class TestDownstreamEnergyEquivalence:
    @given(programs=random_programs())
    @settings(max_examples=25, deadline=None)
    def test_energy_and_makespan_match_through_executor(self, programs):
        """The engines must be interchangeable under the full pipeline:
        same true energy (<=1e-9 relative), same makespan, same breakdown."""
        assume(any(p.busy_time > 0 for p in programs))
        cluster = presets.fire(num_nodes=2)
        placement = breadth_first_placement(cluster, len(programs))
        records = {}
        for engine in ("vectorized", "reference"):
            executor = ClusterExecutor(cluster, rng=7, engine=engine)
            records[engine] = executor.execute(placement, programs, label=engine)
        vec, ref = records["vectorized"], records["reference"]
        assert vec.makespan_s == pytest.approx(ref.makespan_s, rel=1e-9, abs=1e-9)
        assert vec.true_energy_j == pytest.approx(ref.true_energy_j, rel=1e-9)
        assert set(vec.energy_breakdown) == set(ref.energy_breakdown)
        for component, joules in vec.energy_breakdown.items():
            assert joules == pytest.approx(
                ref.energy_breakdown[component], rel=1e-9, abs=1e-9
            )
