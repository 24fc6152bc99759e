"""The CLI contract under mutated fixtures.

Each example takes a fixture and changes it inside the parse bounds:
values, shapes, missing and extra keys, and the payload kind.  Whatever
the result, ``execute`` returns a canonical JSON report with an exit code
from 0 to 3: no exception escapes it and no input is an internal error
(exit 4).  In a ``run_batch`` manifest of inline instances a broken entry
leaves the other entries' bytes unchanged.

Every value drawn is a small integer, fraction or string, and the
precision option is small, so no example builds unbounded integers.
"""
import copy
import json
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phinmod.cli import _HANDLERS, Options, execute, render, run_batch

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
DOCS = {
    p.name: json.loads(p.read_text("utf-8"))
    for p in sorted(FIXTURES.glob("*.json"))
    if p.name != "manifest.json"
}
PAYLOADS = [doc["payload"] for doc in DOCS.values()]
COMMANDS = sorted(_HANDLERS)
ENTRIES = [
    (entry["command"], entry["instance"])
    for entry in json.loads((FIXTURES / "manifest.json").read_text("utf-8"))["entries"]
]
REPORT_KEYS = {"command", "verdict", "value", "witness", "error", "precision", "timing_ms"}

NUMBER = st.one_of(st.integers(-9, 9), st.sampled_from(["-2/3", "3/9", "1/0", "5/7"]))
SMALL = st.one_of(
    NUMBER,
    st.sampled_from(["", "x", "0", "1/2/3", "+4", " 5"]),
    st.booleans(),
    st.none(),
    st.lists(st.integers(-3, 3), max_size=3),
    st.builds(dict),
    st.fixed_dictionaries(
        {"c": st.lists(st.lists(st.integers(-3, 3), min_size=1, max_size=2), max_size=2), "prec": st.integers(-2, 6)}
    ),
)
KEYS = st.sampled_from(["extra", "prec", "c", "rank", "phi", "N", "filtration", "degenerate", "ell", "k"])
PRECISION = st.sampled_from([None, 1, 3, 8])


def _nodes(doc, path=()):
    """(path, node) for every node of a JSON tree, the root included."""
    yield path, doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _nodes(value, path + (i,))


def _replace(doc, path, value):
    if not path:
        return value
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return doc


@st.composite
def mutated(draw, name=None):
    """A fixture (the named one, or any) with one to three changes, each one
    of: a number replaced by a small one, any value replaced, a key or list
    item dropped, a key or list item added, the payload swapped for another
    kind's, the shape replaced."""
    doc = copy.deepcopy(DOCS[name or draw(st.sampled_from(sorted(DOCS)))])
    for _ in range(draw(st.integers(1, 3))):
        nodes = list(_nodes(doc))
        kind = draw(st.sampled_from(["number", "number", "value", "drop", "extra", "kind", "shape"]))
        numbers = [path for path, node in nodes if type(node) is int]
        if kind == "number" and numbers:
            doc = _replace(doc, draw(st.sampled_from(numbers)), draw(NUMBER))
        elif kind == "value":
            path, _ = draw(st.sampled_from(nodes))
            doc = _replace(doc, path, draw(SMALL))
        elif kind in ("drop", "extra"):
            containers = [node for _, node in nodes if isinstance(node, (dict, list))]
            if not containers:
                continue
            node = draw(st.sampled_from(containers))
            if kind == "drop" and node:
                key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
                del node[key]
            elif kind == "extra" and isinstance(node, dict):
                node[draw(KEYS)] = draw(SMALL)
            elif kind == "extra":
                node.append(copy.deepcopy(node[-1]) if node and draw(st.booleans()) else draw(SMALL))
        elif isinstance(doc, dict) and kind == "kind":
            doc["payload"] = copy.deepcopy(draw(st.sampled_from(PAYLOADS)))
        elif isinstance(doc, dict):
            doc["shape"] = {"e": draw(st.integers(0, 3)), "f": draw(st.integers(0, 3))}
    return doc


@st.composite
def cases(draw):
    """A manifest entry's fixture, mutated, under the entry's command or
    under any command."""
    command, name = draw(st.sampled_from(ENTRIES))
    if draw(st.booleans()):
        command = draw(st.sampled_from(COMMANDS))
    return command, draw(mutated(name))


def _checked(report, code) -> str:
    """The report's canonical line, after checking the contract on it."""
    assert 0 <= code <= 3, report["error"]
    assert set(report) == REPORT_KEYS
    line = render(report, "json")
    assert json.dumps(json.loads(line), sort_keys=True, separators=(",", ":")) == line
    assert (code >= 2) == (report["error"] is not None)
    return line


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(case=cases(), precision=PRECISION)
def test_mutated_instances_keep_the_contract(case, precision):
    command, doc = case
    options = Options(precision=precision)
    raw = json.dumps(doc).encode()
    line = _checked(*execute(command, raw, options))
    if not isinstance(doc, str):  # a str source names a file
        # the decoded object and the raw bytes give the same report
        assert _checked(*execute(command, doc, options)) == line


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    broken=mutated(),
    commands=st.lists(st.sampled_from(COMMANDS), min_size=3, max_size=3),
    names=st.lists(st.sampled_from(sorted(DOCS)), min_size=2, max_size=2),
    where=st.integers(0, 2),
)
def test_a_broken_batch_entry_leaves_the_others_alone(broken, commands, names, where):
    assume(not isinstance(broken, str))  # a str instance names a file
    options = Options()
    entries = [{"command": c, "instance": DOCS[n]} for c, n in zip(commands, names)]
    entries.insert(where, {"command": commands[2], "instance": broken})
    alone = [execute(e["command"], e["instance"], options) for e in entries]
    reports, worst = run_batch({"entries": entries}, options)
    assert [render(r, "json") for r in reports] == [_checked(*out) for out in alone]
    assert worst == max(code for _, code in alone)
