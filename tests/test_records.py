"""Every file reader reports a malformed record as ParseError at path:line."""

import pytest

from tagsiege.errors import ParseError
from tagsiege.graph import load_graph
from tagsiege.plan import load_plan
from tagsiege.records import dumps, integer, number, read_jsonl, write_jsonl

NODE_0 = '{"id":0,"label":0,"split":"train","text":"alpha beta"}'


def graph_with_bad_nodes(root):
    (root / "edges.csv").write_text("src,dst\n")
    return load_graph(root)


def graph_with_bad_edges(root):
    (root / "nodes.jsonl").write_text(
        NODE_0 + '\n{"id":1,"label":1,"split":"test","text":"gamma"}\n'
    )
    return load_graph(root)


# reader -> (file it reads, a good line, a line with one wrong-typed field,
#            lines with a bool, float or string where an integer belongs, load(dir))
JSONL_READERS = {
    "nodes": ("nodes.jsonl", NODE_0,
              '{"id":1,"label":0,"split":"train","text":null}',
              ['{"id":true,"label":0,"split":"train","text":"a"}',
               '{"id":1,"label":0.0,"split":"train","text":"a"}'],
              graph_with_bad_nodes),
    "edges": ("edges.jsonl", '{"dst":1,"src":0}', '{"dst":[1],"src":0}',
              ['{"dst":1,"src":false}', '{"dst":1.0,"src":0}', '{"dst":"1","src":0}'],
              graph_with_bad_edges),
    "plan": ("plan.jsonl", '{"add_influencer":3,"delete_neighbor":null,"target":1}',
             '{"skipped":"isolated","target":"two"}',
             ['{"target":2.9,"add_influencer":true,"delete_neighbor":null}',
              '{"add_influencer":3,"delete_neighbor":true,"target":2}',
              '{"add_influencer":3,"delete_neighbor":null,"target":"2"}',
              '{"skipped":"isolated","target":2.0}'],
             lambda d: load_plan(d / "plan.jsonl")),
}


def reader_cases():
    for reader, (name, good, wrong_type, non_integers, load) in JSONL_READERS.items():
        cases = [("invalid-json", "{not json"), ("non-object", "5"),
                 ("missing-key", "{}"), ("wrong-type", wrong_type)]
        cases += [(f"non-integer-{i}", line) for i, line in enumerate(non_integers)]
        for kind, bad in cases:
            # the blank line is skipped but still counted
            yield pytest.param(name, f"{good}\n\n{bad}\n", load, 3, id=f"{reader}-{kind}")


@pytest.mark.parametrize("name, text, load, line", reader_cases())
def test_every_reader_reports_a_bad_record_at_path_and_line(tmp_path, name, text, load, line):
    (tmp_path / name).write_text(text)
    with pytest.raises(ParseError) as err:
        load(tmp_path)
    assert str(err.value).startswith(f"{tmp_path / name}:{line}: ")
    assert (err.value.path, err.value.line) == (str(tmp_path / name), line)


def test_jsonl_round_trip_is_compact_sorted_and_skips_blank_lines(tmp_path):
    path = tmp_path / "r.jsonl"
    write_jsonl(path, [{"b": 1, "a": [1.5, None]}, {"text": "é"}])
    assert path.read_text() == '{"a":[1.5,null],"b":1}\n{"text":"\\u00e9"}\n'
    path.write_text(path.read_text() + "\n  \n" + dumps({"a": 2}) + "\n")
    assert list(read_jsonl(path, lambda rec: rec)) == [
        (1, {"a": [1.5, None], "b": 1}), (2, {"text": "é"}), (5, {"a": 2}),
    ]


@pytest.mark.parametrize("value", [True, False, 2.9, 2.0, "2", None, [2]])
def test_integer_rejects_everything_but_a_json_integer(value):
    with pytest.raises(TypeError, match="expected an integer"):
        integer(value)


@pytest.mark.parametrize("value", [0, -3, 2 ** 70])
def test_integer_passes_integers_through(value):
    assert integer(value) is value


@pytest.mark.parametrize("value", [True, False, "1.5", None, [1.5],
                                   float("nan"), float("inf"), -float("inf"), 10 ** 400])
def test_number_rejects_everything_but_a_finite_json_number(value):
    with pytest.raises(TypeError, match="expected a finite number"):
        number(value)


@pytest.mark.parametrize("value, want", [(0, 0.0), (-3, -3.0), (0.75, 0.75), (1e300, 1e300)])
def test_number_passes_finite_numbers_as_floats(value, want):
    got = number(value)
    assert type(got) is float and got == want


def test_plan_line_with_float_target_and_bool_influencer_is_rejected(tmp_path):
    path = tmp_path / "plan.jsonl"
    path.write_text('{"target":2.9,"add_influencer":true,"delete_neighbor":null}\n')
    with pytest.raises(ParseError) as err:
        load_plan(path)
    assert str(err.value).startswith(f"{path}:1: bad record: expected an integer")
