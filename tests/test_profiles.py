import copy
import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import profilerank as pr
from profilerank import profiles
from profilerank.errors import ValidationError
from profilerank.profiles import format_profile, parse_profile

DAYS = ("day0", "day3", "day6", "day9")


def test_pluripotent_profile_contents(pluripotent):
    spec = pluripotent
    assert spec.name == "pluripotent"
    assert spec.condition_labels == DAYS
    assert spec.basis.T.tolist() == [
        [1, 1, 1, 1],
        [1, 1, 0, 0],
        [1, 1, 1, 0],
        [0.5, -0.5, 0, 0],
    ]
    kinds = [c.kind for c in spec.constraints]
    assert kinds == ["free", "pos", "pos", "equiv"]
    assert spec.constraints[3].value == 1.0
    assert pluripotent.test_bearing == (1, 2, 3)


def test_sox2_profile_validates():
    vp = pr.validate_profile(pr.bundled_profile("sox2"))
    assert vp.basis.T.tolist() == [
        [1, 1, 1, 1],
        [1, 0, 0, 0],
        [1, 1, 0, 0],
        [0, 0, 0.5, -0.5],
    ]
    assert [c.kind for c in vp.constraints] == ["free", "pos", "pos", "equiv"]


@pytest.mark.parametrize("name", ["day3_marker_v1", "day3_marker_v2", "day3_marker_v3"])
def test_day3_marker_profiles_validate(name):
    vp = pr.validate_profile(pr.bundled_profile(name))
    assert [c.kind for c in vp.constraints] == ["free", "pos", "equiv", "equiv"]


def test_duplicate_column_rejected():
    with pytest.raises(ValidationError, match="linearly dependent"):
        spec = pr.ProfileSpec.from_columns(
            "dup", ("a", "b"),
            [("c1", ["1", "0"]), ("c2", ["1", "0"])],
            [pr.Constraint.positive_above(), pr.Constraint.positive_above()],
        )
        pr.validate_profile(spec)


def test_hidden_dependence_rejected():
    # third column = first minus half the second
    with pytest.raises(ValidationError, match="linearly dependent"):
        spec = pr.ProfileSpec.from_columns(
            "dep", ("a", "b", "c"),
            [("c1", ["1", "1", "0"]), ("c2", ["2", "0", "2"]), ("c3", ["0", "1", "-1"])],
            [pr.Constraint.positive_above()] * 3,
        )
        pr.validate_profile(spec)


def test_digit_group_underscores_read_the_same_on_every_python():
    # float takes "1_0" as 10 on every supported Python, Fraction only from 3.11.
    def spec(entry):
        return pr.ProfileSpec.from_columns(
            "u", ("a", "b"), [("c1", [entry, "0"]), ("c2", ["0", "1"])],
            [pr.Constraint.positive_above()] * 2,
        )

    assert spec("1_0").basis.tolist() == spec("10").basis.tolist() == [[10, 0], [0, 1]]
    with pytest.raises(ValidationError, match="linearly dependent"):
        pr.ProfileSpec.from_columns("u", ("a", "b"), [("c1", ["1_0", "0"]), ("c2", ["10", "0"])],
                                    [pr.Constraint.positive_above()] * 2)


def test_all_unconstrained_rejected():
    with pytest.raises(ValidationError, match="nothing to rank"):
        spec = pr.ProfileSpec.from_columns(
            "vacuous", ("a", "b"),
            [("c1", ["1", "0"])], [pr.Constraint.unconstrained()],
        )
        pr.validate_profile(spec)


def test_constraint_count_mismatch():
    with pytest.raises(ValidationError, match="constraints"):
        pr.ProfileSpec.from_columns(
            "bad", ("a", "b"), [("c1", ["1", "0"])],
            [pr.Constraint.positive_above(), pr.Constraint.unconstrained()],
        )


def test_margin_domain_checks():
    with pytest.raises(ValidationError, match="must be > 0"):
        pr.Constraint.equivalent_zero(0.0)
    with pytest.raises(ValidationError, match="must be > 0"):
        pr.Constraint.equivalent_zero(-1.0)
    with pytest.raises(ValidationError, match=">= 0"):
        pr.Constraint.positive_above(-0.5)
    for kind, value in [("pos", math.inf), ("pos", math.nan), ("equiv", math.inf),
                        ("equiv", math.nan)]:
        with pytest.raises(ValidationError, match=f"finite number, got {value!r}"):
            pr.Constraint(kind, value)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", pr.BUNDLED_PROFILES)
def test_bundled_profiles_roundtrip(name):
    spec = pr.bundled_profile(name)
    assert parse_profile(format_profile(spec)) == spec
    # printing is canonical: stable under a second pass
    assert format_profile(parse_profile(format_profile(spec))) == format_profile(spec)


def test_a_bundled_profile_reads_past_a_byte_order_mark(tmp_path, monkeypatch):
    plain = pr.bundled_profile("pluripotent")
    marked = tmp_path / "pluripotent.profile"
    marked.write_bytes(b"\xef\xbb\xbf" + pr.bundled_data_path("pluripotent.profile").read_bytes())
    monkeypatch.setattr(profiles, "bundled_data_path", lambda filename: marked)
    assert pr.bundled_profile("pluripotent") == plain


def test_roundtrip_preserves_exact_decimals(tmp_path):
    text = (
        "name odd\n"
        "conditions a,b,c\n"
        "coef c1 1,0,0.1250 free\n"
        "coef c2 0,-0.3333333333,2e-1 pos:1.5\n"
        "coef c3 0,1,-1 equiv:0.75\n"
    )
    spec = parse_profile(text)
    assert spec.basis_text[0] == ("1", "0", "0.1250")
    assert spec.basis_text[1] == ("0", "-0.3333333333", "2e-1")
    path = tmp_path / "odd.profile"
    pr.profile_to_file(spec, path)
    assert pr.profile_from_file(path) == spec


def test_profile_to_file_names_a_path_it_cannot_write(tmp_path, pluripotent):
    with pytest.raises(ValidationError, match="^" + re.escape(
            f"cannot write output file {tmp_path}: ")):
        pr.profile_to_file(pluripotent, tmp_path)


def test_parse_error_reports_line():
    text = "name x\nconditions a,b\ncoef c1 1,0,0 free\n"
    with pytest.raises(ValidationError, match=":3:.*3 basis entries for 2"):
        parse_profile(text)


def test_parse_unknown_keyword():
    with pytest.raises(ValidationError, match=":1: unknown keyword"):
        parse_profile("wat x\n")


def test_parse_missing_sections():
    with pytest.raises(ValidationError, match="missing 'name'"):
        parse_profile("# nothing\n")
    with pytest.raises(ValidationError, match="missing 'conditions'"):
        parse_profile("name x\n")
    with pytest.raises(ValidationError, match="no 'coef'"):
        parse_profile("name x\nconditions a,b\n")


def test_parse_bad_constraints():
    base = "name x\nconditions a,b\n"
    with pytest.raises(ValidationError, match="bad equiv margin"):
        parse_profile(base + "coef c1 1,0 equiv:wide\n")
    with pytest.raises(ValidationError, match="needs a margin"):
        parse_profile(base + "coef c1 1,0 equiv\n")
    with pytest.raises(ValidationError, match="unknown constraint"):
        parse_profile(base + "coef c1 1,0 maybe\n")
    with pytest.raises(ValidationError, match="must be > 0"):
        parse_profile(base + "coef c1 1,0 equiv:0\n")
    with pytest.raises(ValidationError, match="non-numeric basis entry"):
        parse_profile(base + "coef c1 one,0 free\n")
    for entry in ("1e400", "inf", "nan"):
        with pytest.raises(ValidationError, match=f"basis entry '{entry}' is not a finite"):
            parse_profile(base + f"coef c1 {entry},0 free\n")
    with pytest.raises(ValidationError, match="finite number, got inf"):
        parse_profile(base + "coef c1 1,0 pos:1e400\n")
    # Errors of the constraint value itself name the line and the token.
    for token, message in [
        ("equiv:0", "equivalence margin must be > 0, got 0.0"),
        ("equiv:-2", "equivalence margin must be > 0, got -2.0"),
        ("equiv:inf", "equiv constraint value must be a finite number, got inf"),
        ("pos:1e400", "pos constraint value must be a finite number, got inf"),
        ("pos:-1", "positivity threshold must be >= 0, got -1.0"),
    ]:
        with pytest.raises(ValidationError, match=re.escape(f"<string>:4: {token}: {message}")):
            parse_profile(base + f"coef c0 1,1 free\ncoef c1 1,0 {token}\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("name x y\n", "<string>:1: expected 'name <string>'"),
        ("name x\nconditions a, b\n",
         "<string>:2: expected 'conditions <comma-separated labels>'"),
        ("name x\nconditions a,b\ncoef c1 1,0\n",
         "<string>:3: expected 'coef <name> <decimals> <constraint>'"),
        ("name x\n# again\nname y\n", "<string>:3: duplicate 'name' line"),
        ("name x\nconditions a,b\nconditions a,b\n", "<string>:3: duplicate 'conditions' line"),
        ("name x\ncoef c1 1,0 pos\nconditions a,b\n",
         "<string>:2: 'coef' lines must follow the 'conditions' line"),
        ("name x\nconditions a,b\ncoef c1 1,0 pos\ncoef c2 0,1 free:1\n",
         "<string>:4: 'free' takes no argument"),
    ],
    ids=["name-fields", "conditions-fields", "coef-fields", "repeated-name",
         "repeated-conditions", "coef-before-conditions", "free-with-argument"],
)
def test_parse_errors_name_the_line(text, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        parse_profile(text)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: pr.Constraint("bogus"), "unknown constraint kind 'bogus'"),
        (lambda: pr.ProfileSpec(
            name="x", condition_labels=("a", "b"), coefficient_names=("c1", "c2"),
            basis_text=(("1", "0"),),
            constraints=(pr.Constraint.positive_above(), pr.Constraint.positive_above())),
         "2 coefficients but 1 basis columns"),
        (lambda: pr.bundled_profile("nope"),
         f"unknown bundled profile 'nope'; available: {pr.BUNDLED_PROFILES}"),
    ],
    ids=["constraint-kind", "basis-column-count", "bundled-name"],
)
def test_constructor_errors(build, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        build()


def test_comments_and_blanks_ignored():
    text = "# heading\n\nname x\n# mid\nconditions a,b\ncoef c1 0,1 pos\n"
    spec = parse_profile(text)
    assert spec.name == "x"


_PLAIN = "name p\n# a comment\nconditions a,b\ncoef c1 1,0 pos\ncoef c2 0,1 {}\n"


@pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                  "\u2028", "\u2029"])
def test_only_line_feeds_and_carriage_returns_end_a_profile_line(tmp_path, char):
    # str.splitlines ends a line at ``char``; no reader does. At the end of
    # line 1 and inside the comment on line 2 it leaves every line in place.
    path = tmp_path / "f.profile"

    def read(text):
        path.write_text(text, encoding="utf-8", newline="")
        return pr.profile_from_file(path)

    def message(text):
        with pytest.raises(ValidationError) as caught:
            read(text)
        return str(caught.value)

    odd = _PLAIN.replace("name p", f"name p{char}").replace("a comment", f"a{char}comment")
    plain = read(_PLAIN.format("free"))
    assert read(odd.format("free")) == plain
    for end in ("\r\n", "\r"):
        assert read(odd.replace("\n", end).format("free")) == plain
        assert parse_profile(odd.replace("\n", end).format("free")) == plain
    assert message(odd.format("bad")) == message(_PLAIN.format("bad")) == (
        f"{path}:5: unknown constraint 'bad'")


# ---------------------------------------------------------------------------
# exact-rank acceptance vs brute-force oracle
# ---------------------------------------------------------------------------


def _oracle_full_column_rank(columns):
    # Independent exact elimination on the decimal text.
    cols = [[Fraction(v) for v in col] for col in columns]
    n_rows = len(cols[0])
    used = [False] * n_rows
    for col in cols:
        pivot = next(
            (i for i in range(n_rows) if not used[i] and col[i] != 0), None
        )
        if pivot is None:
            return False
        used[pivot] = True
        for other in cols:
            if other is col:
                continue
            if other[pivot] != 0:
                f = other[pivot] / col[pivot]
                for i in range(n_rows):
                    other[i] -= f * col[i]
    return True


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_validation_matches_exact_rank_oracle(data):
    n_cond = data.draw(st.integers(2, 4))
    n_coef = data.draw(st.integers(1, n_cond))
    entry = st.sampled_from(["0", "1", "-1", "0.5", "2", "0.25", "-0.3333333333"])
    columns = [
        (f"c{j}", tuple(data.draw(entry) for _ in range(n_cond)))
        for j in range(n_coef)
    ]
    constraints = [pr.Constraint.positive_above()] * n_coef
    full_rank = _oracle_full_column_rank([list(col) for _, col in columns])
    if not full_rank:
        with pytest.raises(ValidationError):
            pr.validate_profile(
                pr.ProfileSpec.from_columns("r", [f"x{i}" for i in range(n_cond)],
                                            columns, constraints)
            )
    else:
        vp = pr.validate_profile(
            pr.ProfileSpec.from_columns("r", [f"x{i}" for i in range(n_cond)],
                                        columns, constraints)
        )
        assert vp.test_bearing == tuple(range(n_coef))


# ---------------------------------------------------------------------------
# margin overrides
# ---------------------------------------------------------------------------


def test_with_margins_overrides_epsilon(pluripotent):
    widened = pluripotent.with_margins(epsilon=2.0)
    assert widened.constraints[3].value == 2.0
    assert widened.constraints[1].kind == "pos"
    # original untouched
    assert pluripotent.constraints[3].value == 1.0


def test_with_margins_overrides_delta(pluripotent):
    raised = pluripotent.with_margins(deltas={"day6_vs_day9": 1.5})
    assert raised.constraints[2] == pr.Constraint.positive_above(1.5)
    assert raised.constraints[1] == pr.Constraint.positive_above(0.0)


def test_with_margins_rejects_unknown_or_untestable(pluripotent):
    with pytest.raises(ValidationError, match="unknown coefficient"):
        pluripotent.with_margins(deltas={"nope": 1.0})
    with pytest.raises(ValidationError, match="no positivity threshold"):
        pluripotent.with_margins(deltas={"baseline": 1.0})
    with pytest.raises(ValidationError, match="must be > 0"):
        pluripotent.with_margins(epsilon=-1.0)
    no_equiv = pr.ProfileSpec.from_columns(
        "no_equiv", pluripotent.condition_labels,
        list(zip(pluripotent.coefficient_names[:3], pluripotent.basis_text[:3])),
        pluripotent.constraints[:3],
    )
    with pytest.raises(ValidationError, match="'no_equiv' has no equiv coefficient, so an "
                       "epsilon of 0.5 would vary nothing"):
        no_equiv.with_margins(epsilon=0.5)
    assert no_equiv.with_margins(deltas={"day6_vs_day9": 1.5}).constraints[2].value == 1.5


def test_test_bearing_follows_the_constraints(pluripotent):
    assert pluripotent.test_bearing == (1, 2, 3)
    constraints = (pr.Constraint.positive_above(), *pluripotent.constraints[1:])
    assert replace(pluripotent, constraints=constraints).test_bearing == (0, 1, 2, 3)


def test_basis_is_parsed_from_text_only(pluripotent):
    spec = pluripotent
    with pytest.raises(ValueError, match="init=False"):
        replace(spec, basis=np.zeros_like(spec.basis))
    swapped = replace(spec, basis_text=tuple(reversed(spec.basis_text)))
    assert swapped.basis.tolist() == spec.basis[:, ::-1].tolist()
    narrowed = pluripotent.with_margins(epsilon=0.5)
    assert narrowed.basis is not spec.basis
    assert narrowed.basis.tolist() == spec.basis.tolist()


def test_basis_is_readonly(pluripotent):
    with pytest.raises(ValueError):
        pluripotent.basis[0, 0] = 9.0


def test_every_way_to_build_a_profile_checks_it(pluripotent):
    # The basis columns and constraints of pluripotent with the last column
    # made a copy of the second, and with every coefficient left free.
    dependent = (*pluripotent.basis_text[:3], pluripotent.basis_text[1])
    free = (pr.Constraint.unconstrained(),) * 4
    fields = (pluripotent.name, pluripotent.condition_labels, pluripotent.coefficient_names)

    def text(basis_text, constraints):
        lines = [f"name {fields[0]}", f"conditions {','.join(fields[1])}"]
        lines += [f"coef {c} {','.join(col)} {con.token()}"
                  for c, col, con in zip(fields[2], basis_text, constraints)]
        return "\n".join(lines) + "\n"

    def behind_the_constructor(basis_text, constraints):
        # with_margins builds its result through the constructor, so even a
        # profile altered behind the constructor's back comes out checked.
        profile = copy.copy(pluripotent)
        object.__setattr__(profile, "basis_text", basis_text)
        object.__setattr__(profile, "constraints", constraints)
        return profile.with_margins()

    builders = [
        lambda b, c: pr.ProfileSpec(*fields, b, c),
        lambda b, c: pr.ProfileSpec.from_columns(*fields[:2], list(zip(fields[2], b)), c),
        lambda b, c: parse_profile(text(b, c)),
        lambda b, c: replace(pluripotent, basis_text=b, constraints=c),
        behind_the_constructor,
    ]
    for build in builders:
        assert build(pluripotent.basis_text, pluripotent.constraints) == pluripotent
        with pytest.raises(ValidationError,
                           match="profile 'pluripotent': basis columns are linearly dependent"):
            build(dependent, pluripotent.constraints)
        with pytest.raises(ValidationError, match="profile 'pluripotent': every coefficient is "
                                                  "unconstrained, so there is nothing to rank by"):
            build(pluripotent.basis_text, free)
    with pytest.raises(ValidationError, match="nothing to rank by"):
        replace(pluripotent, constraints=free)
    assert pr.validate_profile(pluripotent) is pluripotent
