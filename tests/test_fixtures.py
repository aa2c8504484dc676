"""Generated catalog/inventory pairs: determinism, shape bounds, coverage, cost."""

from __future__ import annotations

import hashlib
import itertools
import random
import time
import tracemalloc

import pytest

from kmodsim import fixtures
from kmodsim.catalog import parse_catalog
from kmodsim.errors import ConfigError
from kmodsim.fixtures import MAX_MODULES, generate_fixture
from kmodsim.hardware import check_hardware_support, parse_inventory

from conftest import reference_fixture

# SHA-256 of catalog_text + inventory_text. The first nine are the benchmark
# workloads' shapes; the next three are small. Of those, only (50, 5, 7, 0.5)
# draws extra dependencies: its second picks follow sample's pool rule from up
# to 21 other lower-level modules and its set rule from 22 to 39 (see
# fixtures._sample). The next two are deep: 40 and 55 levels, with extra
# dependencies that reach down dozens of levels, so each dependency is looked
# up across many levels. The last is the north star's largest size and the
# one shape where most names take a numeric suffix, so _unique_names' suffix
# and retry paths run in bulk.
GOLDEN = {
    (1000, 8, 1, 0.8): "90a110f86f1e73d89f337180844db98f4beb7d5b08ad7074a563208fc7c6b270",
    (1000, 8, 2, 0.8): "f3d36a2590a88b287cd7b5e40b7dccfbd8df50748c4a13a7be43db37890402e1",
    (1000, 8, 3, 0.8): "24027834f9b84df6cdda83579d5224029d8f5f66b8c7b676ddc8b85de4a8090d",
    (5000, 16, 1, 1.0): "481bc8d26127c94e0fec5337a8ab2639b1ae27f97769092a71ed6380547783c4",
    (5000, 16, 2, 1.0): "1ca6d648f484ed40b0471996e9fdf584eb2f95d5ec957d2c8d2e66c79cf7b3a8",
    (5000, 16, 3, 1.0): "30a987481d89788d7c9732bb759b11b4edaf55d6da2395826565e40f34adf2c6",
    (600, 8, 1, 0.8): "ab11e5d66dff016266bc61ab6958cf283245fca4e5e9b277a082e556d4b67dc8",
    (600, 8, 2, 0.8): "49984353d5452479650df21d0adae5f5bcce06ef7dc28490ef597834312a235e",
    (600, 8, 3, 0.8): "bfad32595da3fce8679557ac5937977beffee50372d16667bf1a8444c686db66",
    (1, 1, 0, 0.0): "c1ba04a4a5819531866b4f36cf2fc7bae535d8ba28c62f4a79fd92bdca787ad8",
    (5, 2, 1, 1.0): "a9a615f029cbfab24c2742c02c91e78622b35ba0c5308a698cc211e4fde727a0",
    (50, 5, 7, 0.5): "3b1c2c8c29f65eaca42471c6d4b409c55fd1350d0be4a933946602739c4e9420",
    (3000, 40, 9, 0.3): "7031cfc3aad9f739d970ec46d8604109e8c23c33082716772d32f6d869401b2c",
    (2000, 255, 4, 0.6): "1318f2ecfc308c6a22185005087887adf705ad65ef7145883b34192919b5cde7",
    (50000, 16, 1, 0.8): "b99c983fba762eed3a5c377f6dcd435e48fa0bb6c65119ac947abef052ce8fbc",
}


@pytest.mark.parametrize("args", list(GOLDEN), ids=str)
def test_output_bytes_are_pinned(args):
    catalog_text, inventory_text = generate_fixture(*args)
    digest = hashlib.sha256((catalog_text + inventory_text).encode()).hexdigest()
    assert digest == GOLDEN[args]


def test_output_matches_the_stdlib_draws_on_random_shapes():
    shapes = random.Random(22)
    mismatched = []
    for seed in range(300):
        args = (
            shapes.randint(1, 400),
            shapes.randint(1, 40),
            seed,
            shapes.choice((0.0, 0.3, 0.8, 1.0)),
        )
        if generate_fixture(*args) != reference_fixture(*args):
            mismatched.append(args)
    assert mismatched == []


def test_a_module_with_no_other_lower_level_module_still_draws_no_extra():
    # The second module depends on the first, the only level-0 module, so it
    # drew randint(0, 0) for its extra dependencies: one draw, always 0.
    args = (2, 2, 1, 1.0)
    catalog_text, _ = generate_fixture(*args)
    first, second = (line.split("|") for line in catalog_text.splitlines()[2:4])
    assert second[2] == first[0]
    assert generate_fixture(*args) == reference_fixture(*args)


def test_two_extra_dependencies_across_samples_pool_to_set_switch(monkeypatch):
    real, calls = fixtures._sample, []

    def recording(getrandbits, n, k):
        calls.append((n, k))
        return real(getrandbits, n, k)

    monkeypatch.setattr(fixtures, "_sample", recording)
    args = (60, 2, 19, 0.8)
    assert generate_fixture(*args) == reference_fixture(*args)
    # Two picks from 19, 20 and 21 other lower-level modules (pool) and 22 (set).
    assert {(n, 2) for n in (19, 20, 21, 22)} <= set(calls)


def test_every_small_shape_matches_the_stdlib_draws():
    # Each module at level k >= 1 has `n` modules at level k - 1 and `lower`
    # at levels below k when it draws, so it picks its extra count from
    # others = lower - 1. Small shapes give every case of the inlined draws:
    # others of 0, 1 and 2, level k - 1 with fewer than 3 modules while the
    # levels below hold more, and the pool branch of _sample.
    seen = set()
    for modules, max_depth, seed in itertools.product(range(1, 13), range(1, 7), range(20)):
        args = (modules, max_depth, seed, 0.5)
        catalog_text, inventory_text = generate_fixture(*args)
        assert (catalog_text, inventory_text) == reference_fixture(*args), args
        levels, counts = {}, [0] * max_depth
        for line in catalog_text.splitlines()[2 : 2 + modules]:
            name, _, deps, _ = line.split("|")
            level = levels[deps.split(",")[0]] + 1 if deps else 0
            if level:
                n, lower = counts[level - 1], sum(counts[:level])
                seen.add(("others", min(lower - 1, 3)))
                seen.add(("few at k - 1", n < 3 < lower))
                seen.add(("picks", len(deps.split(",")) - 1, lower - 1 <= 21))
            levels[name] = level
            counts[level] += 1
    assert {("others", 0), ("others", 1), ("others", 2), ("few at k - 1", True)} <= seen
    assert {("picks", 1, True), ("picks", 2, True)} <= seen


def test_depth_255_matches_the_stdlib_draws():
    args = (3000, 255, 11, 0.5)
    assert generate_fixture(*args) == reference_fixture(*args)


# Small n, and n = 2**j - 1, 2**j and 2**j + 1 up to 2**20: where the bit
# count changes and where nearly half of all draws are redrawn.
BELOW_NS = sorted({*range(1, 65), *(2**j + d for j in range(1, 21) for d in (-1, 0, 1))})


def test_below_draws_what_randrange_draws_and_leaves_the_same_state():
    for n in BELOW_NS:
        for seed in range(8):
            ours, stdlib = random.Random(seed), random.Random(seed)
            for _ in range(4):
                assert fixtures._below(ours.getrandbits, n) == stdlib.randrange(n), (n, seed)
                assert ours.getstate() == stdlib.getstate(), (n, seed)


@pytest.mark.parametrize("k", [1, 2])
def test_sample_draws_what_random_sample_draws_and_leaves_the_same_state(k):
    # 20..23 straddle sample's switch from its pool (n <= 21) to its set.
    for n in range(k, 65):
        for seed in range(16):
            ours, stdlib = random.Random(seed), random.Random(seed)
            for _ in range(4):
                drawn = fixtures._sample(ours.getrandbits, n, k)
                assert drawn == stdlib.sample(range(n), k), (n, seed)
                assert ours.getstate() == stdlib.getstate(), (n, seed)


def test_generation_time_grows_linearly():
    def cpu_s(modules):
        runs = []
        for _ in range(3):
            start = time.process_time()
            generate_fixture(modules, 16, 1, 1.0)
            runs.append(time.process_time() - start)
        return min(runs)

    # Ten times the modules: about 10x for linear code, about 75x for a
    # generator that rebuilds the lower-level list for every module.
    assert cpu_s(20_000) / cpu_s(2_000) < 30


def test_same_seed_is_byte_identical():
    assert generate_fixture(5, 2, 1, 1.0) == generate_fixture(5, 2, 1, 1.0)


def test_different_seeds_differ():
    assert generate_fixture(5, 2, 1, 1.0) != generate_fixture(5, 2, 2, 1.0)


def test_generated_catalog_parses_within_depth_bound():
    catalog_text, inventory_text = generate_fixture(50, 5, 7, 0.5)
    catalog = parse_catalog(catalog_text)
    parse_inventory(inventory_text)
    assert len(catalog) == 50
    assert max(catalog.levels) <= 5


def test_smallest_fixture_is_gated_with_no_matching_device():
    catalog_text, inventory_text = generate_fixture(1, 1, 0, 0.0)
    catalog = parse_catalog(catalog_text)
    inventory = parse_inventory(inventory_text)
    (rec,) = catalog.records
    assert rec.hw_tags  # hardware-gated
    assert not check_hardware_support(rec, inventory)


def test_full_coverage_matches_every_module():
    catalog_text, inventory_text = generate_fixture(5, 2, 1, 1.0)
    catalog = parse_catalog(catalog_text)
    inventory = parse_inventory(inventory_text)
    assert all(check_hardware_support(rec, inventory) for rec in catalog.records)


def test_partial_coverage_is_roughly_honored():
    catalog_text, inventory_text = generate_fixture(200, 4, 3, 0.5)
    catalog = parse_catalog(catalog_text)
    inventory = parse_inventory(inventory_text)
    matched = sum(1 for rec in catalog.records if check_hardware_support(rec, inventory))
    assert 60 <= matched <= 140

def test_symbols_decoys_present_in_text_but_filtered_by_parse():
    catalog_text, _ = generate_fixture(10, 3, 9, 1.0)
    assert ".symbols|" in catalog_text
    catalog = parse_catalog(catalog_text)
    assert len(catalog) == 10
    assert not any(name.endswith(".symbols") for name in catalog.names)


@pytest.mark.parametrize(
    "args", [(0, 1, 0, 1.0), (1, 0, 0, 1.0), (1, 1, 0, -0.1), (1, 1, 0, 1.5), (1, 1, -5, 1.0)]
)
def test_bad_shapes_rejected(args):
    with pytest.raises(ConfigError):
        generate_fixture(*args)


def test_name_space_bound_counts_every_drawable_name():
    stems = {
        "".join(syllables)
        for count in (2, 3)
        for syllables in itertools.product(fixtures._SYLLABLES, repeat=count)
    }
    # Each stem bare or with one of 100 numeric suffixes.
    assert MAX_MODULES == len(stems) * 101


@pytest.mark.parametrize("modules, allowed", [(MAX_MODULES, True), (MAX_MODULES + 1, False)])
def test_module_count_is_checked_against_the_name_space_before_drawing(
    monkeypatch, modules, allowed
):
    class Drew(Exception):
        pass

    def draw(rng, count):
        raise Drew

    monkeypatch.setattr(fixtures, "_unique_names", draw)
    with pytest.raises(Drew if allowed else ConfigError):
        generate_fixture(modules, 1, 0, 1.0)


def test_depth_beyond_the_module_count_allocates_nothing():
    tracemalloc.start()
    try:
        catalog_text, inventory_text = generate_fixture(1, 10**6, 0, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20

    def records(text):
        return [line for line in text.splitlines() if not line.startswith("#")]

    shallow_catalog, shallow_inventory = generate_fixture(1, 1, 0, 1.0)
    assert records(catalog_text) == records(shallow_catalog)
    assert inventory_text == shallow_inventory

