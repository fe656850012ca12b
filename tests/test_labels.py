"""The one label type: every family's str, latex() and parse agree."""
import pytest

from sl2q.chars import CharLabel, char_labels, parse_char_label
from sl2q.fixdim import SubgroupKey, parse_subgroup_key, subgroup_keys
from sl2q.grp import ClassLabel, class_labels, parse_class_label
from sl2q.realrep import RealCharLabel, parse_real_char_label, real_char_labels

# both residues of q mod 4, and q = 3 with no a-classes
Q_LABELS = [3, 5, 7, 11, 13, 17]

FAMILIES = [(class_labels, parse_class_label), (char_labels, parse_char_label),
            (real_char_labels, parse_real_char_label),
            (subgroup_keys, parse_subgroup_key)]


# the LaTeX spelling the CLI made by rewriting printed names, kept here
# as the reference latex() is held to

def _class_latex(s: str) -> str:
    if "^" in s:
        base, _, exp = s.partition("^")
        return f"${base}^{{{exp}}}$"
    if s == "1":
        return "$1$"
    return f"${s}$"


def _char_latex(s: str) -> str:
    greek = {"psi": "\\psi", "chi": "\\chi", "theta": "\\theta",
             "xi": "\\xi", "eta": "\\eta"}
    if s == "1":
        return "$\\mathbf{1}$"
    for plain, tex in greek.items():
        if s == plain:
            return f"${tex}$"
        if s.startswith(plain + "_"):
            return f"${tex}_{{{s[len(plain) + 1:]}}}$"
        if s.startswith("2" + plain + "_"):
            return f"$2{tex}_{{{s[len(plain) + 2:]}}}$"
        if s.startswith("2Re(" + plain):
            inner = s[4:-1]
            return f"$2\\mathrm{{Re}}\\,{greek[plain]}_{{{inner.partition('_')[2]}}}$"
    return f"${s}$"


@pytest.mark.parametrize("q", Q_LABELS)
def test_parse_inverts_str(q):
    for labels, parse in FAMILIES:
        for x in labels(q):
            assert parse(str(x)) == x
            assert type(x).parse(str(x)) == x


@pytest.mark.parametrize("q", Q_LABELS)
def test_latex_matches_the_rewrite_of_the_printed_name(q):
    for x in class_labels(q):
        assert x.latex() == _class_latex(str(x))
    for x in char_labels(q) + real_char_labels(q):
        assert x.latex() == _char_latex(str(x))
    assert [k.latex() for k in subgroup_keys(5)] == [
        r"$\{1\}$", r"$\langle z\rangle$", r"$\langle c\rangle$",
        r"$\langle zc\rangle$", r"$\langle a^{1}\rangle$",
        r"$\langle b^{1}\rangle$", r"$\langle b^{2}\rangle$"]


@pytest.mark.parametrize("parse,s", [
    # wrong parity: odd chi/theta rows only occur doubled, even ones single
    (parse_real_char_label, "chi_3"), (parse_real_char_label, "2theta_4"),
    # an empty index
    (parse_class_label, "a^"), (parse_subgroup_key, "AH()"),
    (parse_char_label, "chi_"), (parse_real_char_label, "chi_"),
    # a sign, a leading zero, an index on a kind without one
    (parse_class_label, "a^-1"), (parse_class_label, "a^+1"),
    (parse_class_label, "a^01"), (parse_class_label, "z^0"),
    # a name of another family
    (parse_class_label, "psi"), (parse_char_label, "a^1"),
    (parse_char_label, "2Re(xi_1)"), (parse_subgroup_key, "b^1"),
], ids=lambda v: v.__self__.__name__ if callable(v) else v)
def test_parse_rejects(parse, s):
    with pytest.raises(ValueError):
        parse(s)


def test_families_never_compare_equal():
    pairs = [(ClassLabel("1"), CharLabel("1")),
             (CharLabel("psi"), RealCharLabel("psi")),
             (CharLabel("xi1"), RealCharLabel("xi1"))]
    for x, y in pairs:
        assert (x.kind, x.index) == (y.kind, y.index)
        assert x != y and hash(x) == hash(y)
        assert len({x, y}) == 2
        with pytest.raises(AttributeError):
            x.note = "labels stay frozen"
    assert repr(ClassLabel("a", 3)) == "ClassLabel(kind='a', index=3)"
    assert repr(SubgroupKey("AH", 2)) == "SubgroupKey(kind='AH', index=2)"
