"""Arbitrary JSON-like request documents sent to ``run()``, for every command.

Whatever the document, ``run()`` answers with the three-key envelope and an
exit code of 0, 1 or 2, twice alike, and the answers that claim success
re-check: a built chain has no violations, and a genus-0 realization has the
requested vanishing.  Integers stay within 0..5, so every request is cheap.
Most parameters are drawn valid for the drawn (r, d), so that most requests
are answered; each can instead be left out or replaced by any JSON value.
"""

from hypothesis import given, settings, strategies as st

from bnseries.chains import chain_violations, witness_from_dict
from bnseries.cli import _COMMANDS, _build_problem, _dump, _parse_seq, run

COMMANDS = sorted(_COMMANDS)
small = st.integers(0, 5)
scalars = st.none() | st.booleans() | small | st.floats(-1, 6) | st.text(max_size=4)
json_like = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def requests(draw):
    command = draw(st.sampled_from(COMMANDS))
    d = draw(small)
    r = draw(st.integers(0, d))

    def seq(top, distinct):
        # r + 1 entries in [0, top]; sorted, and distinct when they can be
        entries = st.lists(st.integers(0, max(top, 0)), min_size=r + 1, max_size=r + 1, unique=distinct and r <= top)
        value = sorted(draw(entries))
        return ",".join(map(str, value)) if draw(st.booleans()) else value

    good = {
        **{key: draw(small) for key in ("g", "gy", "gz", "g_max", "r_max", "d_max")},
        "r": r,
        "d": d,
        "genus": draw(st.integers(0, 1)),
        "alpha1": seq(d - r, False),
        "alpha2": seq(d - r, False),
        "a1": seq(d, True),
        "a2": seq(d, True),
        "fixture": draw(st.sampled_from(["general", "torsion2"])),
        "command": draw(st.sampled_from(["check", "chain"])),
        "alphas": draw(st.sampled_from(["zero", "all"])),
        "verify": draw(st.sampled_from([False, None, True])),
        "witness": draw(json_like),
    }
    params = {}
    for key in _COMMANDS[command][1] + ("witness",):
        way = draw(st.sampled_from(["good"] * 14 + ["absent", "any"]))
        if way != "absent" and key in good:
            params[key] = good[key] if way == "good" else draw(json_like)
    way = draw(st.sampled_from(["good"] * 17 + ["command", "params", "document"]))
    if way == "document":
        return draw(json_like)
    return {
        "command": draw(json_like) if way == "command" else command,
        "params": draw(json_like) if way == "params" else params,
    }


def _recheck(request, response):
    """Problems with an ``ok`` answer, re-derived from the request."""
    command, params, payload = request["command"], request["params"], response["payload"]
    if command == "chain" and "components" in payload:
        return chain_violations(witness_from_dict(payload), _build_problem(params))
    if command == "realize" and payload["genus"] == 0:
        want = [list(_parse_seq(params[key], key)) for key in ("a1", "a2")]
        if [payload["vanishing_at_p1"], payload["vanishing_at_p2"]] != want:
            return [f"vanishing {payload} != requested {want}"]
    return []


@settings(max_examples=300, deadline=None, derandomize=True)
@given(requests())
def test_run_answers_every_document(request):
    response, code = run(request)
    assert code in (0, 1, 2)
    assert sorted(response) == ["diagnostics", "payload", "status"]
    assert (response["status"] == "error") == (code != 0)
    again, code_again = run(request)
    assert (_dump(again), code_again) == (_dump(response), code)
    if response["status"] == "ok":
        assert _recheck(request, response) == []
