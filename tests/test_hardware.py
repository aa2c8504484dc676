"""Inventory parsing and the hardware-support check."""

from __future__ import annotations

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kmodsim.catalog import ModuleRecord, parse_catalog
from kmodsim.errors import MalformedInventory
from kmodsim.fixtures import generate_fixture
from kmodsim.hardware import HardwareInventory, check_hardware_support, parse_inventory
from kmodsim.loader import StrategyConfig, run_strategy
from kmodsim.registry import register_v0, register_v1

from conftest import make_catalog, make_inventory


def module(*tags: str) -> ModuleRecord:
    return ModuleRecord(name="m", size_kb=1, hw_tags=tags)


class TestParse:
    def test_single_device(self):
        inv = make_inventory("Intel e1000 Gigabit")
        assert inv.devices == ("Intel e1000 Gigabit",)

    def test_header_only_is_a_legal_empty_inventory(self):
        inv = parse_inventory("HWINV v1\n")
        assert len(inv) == 0

    def test_lines_are_trimmed(self):
        inv = parse_inventory("HWINV v1\n  one device \n\ttwo device\t\nthree device\n")
        assert inv.devices == ("one device", "two device", "three device")

    def test_missing_header(self):
        with pytest.raises(MalformedInventory):
            parse_inventory("Intel e1000\n")

    def test_comments_ignored(self):
        inv = parse_inventory("HWINV v1\n# scanner output\nIntel e1000\n")
        assert inv.devices == ("Intel e1000",)


class TestCheck:
    def test_direct_containment(self):
        inv = make_inventory("Intel e1000 Gigabit")
        assert check_hardware_support(module("e1000"), inv)

    def test_no_match(self):
        inv = make_inventory("Intel e1000 Gigabit")
        assert not check_hardware_support(module("ath9k"), inv)

    def test_untagged_module_always_matches(self):
        assert check_hardware_support(module(), HardwareInventory(()))

    def test_match_is_case_insensitive(self):
        inv = make_inventory("INTEL E1000 GIGABIT")
        assert check_hardware_support(module("e1000"), inv)

    def test_word_boundaries_respected(self):
        inv = make_inventory("Intel e1000e Gigabit")
        assert not check_hardware_support(module("e1000"), inv)
        assert check_hardware_support(module("e1000e"), inv)

    def test_multi_word_tag(self):
        inv = make_inventory("Broadcom NetXtreme II controller")
        assert check_hardware_support(module("netxtreme ii"), inv)

    def test_punctuation_counts_as_boundary(self):
        inv = make_inventory("Realtek RTL8111/8168 PCIe")
        assert check_hardware_support(module("8168"), inv)


DEVICE = st.text(
    alphabet="abcdefghij 0123456789-", min_size=1, max_size=20
).map(lambda s: s.strip() or "x")
TAG = st.text(alphabet="abcdefghij0123456789", min_size=1, max_size=6)


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(devices=st.lists(DEVICE, max_size=8), extra=DEVICE, tags=st.lists(TAG, max_size=3))
    def test_adding_devices_never_unmatches(self, devices, extra, tags):
        mod = module(*tags)
        before = check_hardware_support(mod, HardwareInventory(tuple(devices)))
        after = check_hardware_support(mod, HardwareInventory(tuple(devices) + (extra,)))
        assert not before or after

    @settings(max_examples=150, deadline=None)
    @given(devices=st.lists(DEVICE, max_size=8), tags=st.lists(TAG, max_size=3), seed=st.randoms())
    def test_device_order_is_irrelevant(self, devices, tags, seed):
        mod = module(*tags)
        shuffled = list(devices)
        seed.shuffle(shuffled)
        assert check_hardware_support(mod, HardwareInventory(tuple(devices))) == (
            check_hardware_support(mod, HardwareInventory(tuple(shuffled)))
        )

    @settings(max_examples=150, deadline=None)
    @given(devices=st.lists(DEVICE, max_size=8), tags=st.lists(TAG, min_size=1, max_size=3))
    def test_uppercasing_everything_changes_nothing(self, devices, tags):
        plain = check_hardware_support(module(*tags), HardwareInventory(tuple(devices)))
        upper = check_hardware_support(
            module(*(t.upper() for t in tags)),
            HardwareInventory(tuple(d.upper() for d in devices)),
        )
        assert plain == upper


def _contains_word(haystack: str, needle: str) -> bool:
    # Containment with word boundaries on both ends of the match window;
    # word characters are alphanumerics and underscore. A hand-written
    # reference for the gate's ``(?<!\w)<tag>(?!\w)`` pattern, without ``re``.
    if not needle:
        return False
    start = 0
    while True:
        i = haystack.find(needle, start)
        if i < 0:
            return False
        end = i + len(needle)
        before_ok = i == 0 or not _is_word_char(haystack[i - 1])
        after_ok = end == len(haystack) or not _is_word_char(haystack[end])
        if before_ok and after_ok:
            return True
        start = i + 1


def _is_word_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def oracle(tags, devices) -> bool:
    """The gate by definition: any tag on word boundaries in any device."""
    if not tags:
        return True
    return any(_contains_word(d.casefold(), t.casefold()) for d in devices for t in tags)


GATE_STRUCTURES = ("_tokens", "_runs")


def built(inventory: HardwareInventory) -> set[str]:
    """The gate's lazily built structures that ``inventory`` holds so far."""
    return {name for name in ("_folded",) + GATE_STRUCTURES if name in vars(inventory)}


def spy_on_matches(monkeypatch) -> list[str]:
    """The tags that reach ``HardwareInventory._matches`` from now on, in order."""
    entered = []
    matches = HardwareInventory._matches

    def spy(self, tag):
        entered.append(tag)
        return matches(self, tag)

    monkeypatch.setattr(HardwareInventory, "_matches", spy)
    return entered


# Word characters whose casefolding is not one-to-one or not ASCII: sharp s
# folds to "ss", dotted capital I to "i" plus a combining dot (not a word
# character), final sigma to sigma, the fi ligature to "fi"; Arabic-Indic
# three, Devanagari five and superscript two are digits of other scripts.
WORDY = "abAB01_ßSsİiσςΣ٣५²ﬁ"
# Tab, no-break space, thin space and the file separator are whitespace to
# ``str.split``, so they delimit the gate's tokens like a space does.
EDGES = " -/.\u0307\t\u00a0\u2009\u001c"


@st.composite
def devices_and_tags(draw):
    devices = draw(st.lists(
        st.text(WORDY + EDGES, min_size=1, max_size=16).map(str.strip).filter(bool),
        max_size=6,
    ))
    tags = []
    for _ in range(draw(st.integers(0, 3))):
        if devices and draw(st.booleans()):
            # A slice of a device, so that matches and near misses are common.
            device = draw(st.sampled_from(devices))
            start = draw(st.integers(0, len(device) - 1))
            tag = device[start:draw(st.integers(start + 1, len(device)))]
            tags.append(tag.upper() if draw(st.booleans()) else tag)
        else:
            tags.append(draw(st.text(WORDY + EDGES, max_size=6)))
    return devices, tags


class TestIndexedGate:
    """The indexed gate against ``_contains_word`` over every device and tag."""

    @settings(max_examples=400, deadline=None)
    @given(case=devices_and_tags())
    @example(case=(["Broadcom NetXtreme II controller"], ["netxtreme ii"]))
    @example(case=(["Realtek RTL8111/8168 PCIe"], ["/8168"]))
    @example(case=(["ab ab", "ab"], ["ab ab"]))
    @example(case=(["STRASSE", "STRAßEN"], ["straße"]))
    @example(case=(["İ", "i"], ["İ"]))
    @example(case=(["ΟΔΟΣ"], ["οδος", "οδοσ"]))
    @example(case=(["port ٣"], ["٣"]))
    @example(case=(["Realtek RTL8111 /8168"], ["/8168"]))
    @example(case=(["x dev-foo-bar"], ["dev-foo"]))
    @example(case=(["dev x", "foo"], ["foo-dev"]))
    @example(case=(["a-b"], ["b"]))
    def test_matches_the_oracle(self, case):
        devices, tags = case
        inventory = HardwareInventory(tuple(devices))
        assert check_hardware_support(module(*tags), inventory) == oracle(tags, devices)

    @pytest.mark.parametrize(
        "devices, tag, expected, decided_by",
        [
            (["Intel dev-foo adapter"], "dev-foo", True, "tokens"),
            (["Intel dev-foo adapter", "dev-bar"], "dev-foobar", False, "runs"),
            (["Intel dev-foo adapter"], "nowhere", False, "runs"),
            (["Broadcom NetXtreme II controller"], "NetXtreme II", True, "runs-then-scan"),
            (["ab ab"], "ab ab", True, "runs-then-scan"),
            (["ab", "ab x"], "ab ab", False, "runs-then-scan"),
            (["STRASSE"], "Straße", True, "tokens"),
            (["ΟΔΟΣ"], "οδος", True, "tokens"),
            (["port ٣"], "٣", True, "tokens"),
            (["Intel e1000 - rev 2"], "- rev", True, "scan"),
            (["Realtek RTL8111/8168 PCIe"], "/8168", False, "scan"),
            (["Realtek RTL8111/8168 PCIe"], "8168 ", False, "scan"),
            (["İ"], "İ", True, "tokens"),
            (["a"], "", False, "scan"),
            (["a-b"], "b", True, "runs"),
        ],
    )
    def test_path_and_result(self, devices, tag, expected, decided_by, monkeypatch):
        entered = spy_on_matches(monkeypatch)
        inventory = HardwareInventory(tuple(devices))
        assert check_hardware_support(module(tag), inventory) is expected
        # ``supports`` decides a whole-token tag in its own frame.
        assert entered == ([] if decided_by == "tokens" else [tag.casefold()])
        assert oracle([tag], devices) is expected
        # Each step builds what it reads; every tag tries the tokens first.
        assert built(inventory) == {
            "tokens": {"_folded", "_tokens"},
            "scan": {"_folded", "_tokens"},
            "runs": {"_folded", "_tokens", "_runs"},
            "runs-then-scan": {"_folded", "_tokens", "_runs"},
        }[decided_by]
        assert (tag.casefold() in inventory._tokens) is (decided_by == "tokens")

    @pytest.mark.parametrize(
        "tags, expected, entered",
        [
            ((), True, []),
            (("E1000",), True, []),
            (("nowhere", "e1000"), True, ["nowhere"]),
            (("e1000", "nowhere"), True, []),
            (("nowhere", "intel e1000"), True, ["nowhere", "intel e1000"]),
            (("nowhere", "e100"), False, ["nowhere", "e100"]),
        ],
    )
    def test_only_a_tag_that_is_not_a_token_enters_matches(self, tags, expected, entered,
                                                           monkeypatch):
        seen = spy_on_matches(monkeypatch)
        assert make_inventory("Intel e1000 Gigabit").supports(tags) is expected
        assert seen == entered

    def test_each_structure_is_built_once(self):
        inventory = make_inventory("Intel dev-foo adapter", "Realtek dev-bar PHY")
        assert check_hardware_support(module("intel dev-foo"), inventory)
        structures = [getattr(inventory, name) for name in GATE_STRUCTURES]
        assert check_hardware_support(module("dev-bar phy"), inventory)
        assert check_hardware_support(module("dev-bar"), inventory)
        assert check_hardware_support(module("foo"), inventory)
        assert not check_hardware_support(module("dev-baz"), inventory)
        assert not check_hardware_support(module("/bar"), inventory)
        for name, structure in zip(GATE_STRUCTURES, structures):
            assert getattr(inventory, name) is structure, name

    @pytest.mark.parametrize("seed", [3, 17, 2024])
    def test_generated_tags_are_decided_by_the_two_sets(self, seed):
        catalog_text, inventory_text = generate_fixture(300, 4, seed, 0.8)
        catalog = parse_catalog(catalog_text)
        inventory = parse_inventory(inventory_text)
        tagged = [tags for tags in catalog.hw_tags if tags]
        assert len(tagged) == 300
        results = [inventory.supports(tags) for tags in tagged]
        assert results == [oracle(tags, inventory.devices) for tags in tagged]
        assert True in results and False in results
        assert built(inventory) == {"_folded", "_tokens", "_runs"}

    def test_word_run_pattern_is_the_word_char_predicate(self):
        word = re.compile(r"\w")
        for code in range(0x110000):
            ch = chr(code)
            assert bool(word.fullmatch(ch)) == _is_word_char(ch), hex(code)


class TestLazyIndex:
    """Sessions that never check a tag build nothing of the gate's."""

    def test_untagged_sweep_never_builds_the_index(self):
        catalog = make_catalog("a|1||", "b|1|a|", "c|1||")
        inventory = make_inventory("Intel dev-a adapter")
        index = register_v0(catalog, catalog.names)
        _, trace = run_strategy(catalog, index, inventory, StrategyConfig("stage0"))
        assert len(trace) == 3
        assert not built(inventory)

    def test_stage1_session_never_builds_the_index(self):
        catalog_text, inventory_text = generate_fixture(60, 4, seed=5, hw_coverage=0.8)
        catalog = parse_catalog(catalog_text)
        registered_with = parse_inventory(inventory_text)
        index = register_v1(catalog, catalog.names, registered_with)
        assert built(registered_with) == {"_folded", "_tokens", "_runs"}

        inventory = parse_inventory(inventory_text)
        run_strategy(catalog, index, inventory, StrategyConfig("stage1"))
        assert not built(inventory)

    def test_devices_fold_on_the_first_tagged_query_only(self):
        inventory = make_inventory("Intel DEV-A adapter", "/8168 PHY")
        assert not built(inventory)
        assert inventory.supports(("dev-a",)) and "_folded" in built(inventory)
        folded = inventory._folded
        assert folded == ("intel dev-a adapter", "/8168 phy")
        assert inventory.supports(("/8168",)) and inventory._folded is folded

    @pytest.mark.parametrize(
        "devices, bad",
        [
            (("",), ""),
            (("ok", " lead"), " lead"),
            (("trail ", "ok"), "trail "),
            (("ok", "tab\t", ""), "tab\t"),
            (("ok", "", "x "), ""),
            (("line\n",), "line\n"),
            (("　wide",), "　wide"),
        ],
    )
    def test_an_empty_or_untrimmed_device_is_named(self, devices, bad):
        with pytest.raises(ValueError) as err:
            HardwareInventory(devices)
        assert str(err.value) == f"device strings must be non-empty and trimmed: {bad!r}"

    @pytest.mark.parametrize(
        "devices, bad",
        [((1,), 1), ((b"eth0",), b"eth0"), (("ok", None), None), (("", 2), 2)],
    )
    def test_a_device_that_is_not_a_string_is_named(self, devices, bad):
        with pytest.raises(ValueError) as err:
            HardwareInventory(devices)
        assert str(err.value) == f"device strings must be str, not {bad!r}"

    def test_a_string_is_not_read_as_devices(self):
        with pytest.raises(ValueError, match="^devices must be a sequence of strings, "):
            HardwareInventory("eth0")

    def test_inner_whitespace_is_kept(self):
        assert HardwareInventory(("Intel  e1000\tport",)).devices == ("Intel  e1000\tport",)

    def test_a_device_list_is_stored_as_a_tuple(self):
        inventory = HardwareInventory(["Intel e1000"])
        assert inventory.devices == ("Intel e1000",)
        assert inventory == HardwareInventory(("Intel e1000",))
        assert hash(inventory) == hash(HardwareInventory(("Intel e1000",)))

