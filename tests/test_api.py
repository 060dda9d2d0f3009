"""The public names of latmin: each one is used by the library or
documented in the README."""

import re
import tokenize
from pathlib import Path

import latmin

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "latmin"


def _code_names(path: Path) -> set[str]:
    """The names that the code of ``path`` uses: every name token that is
    not the name of a ``def`` or ``class``.  Strings and comments are
    tokens of their own, so prose does not count."""
    names = set()
    previous = None
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.NAME and previous not in ("def", "class"):
                names.add(tok.string)
            if tok.type not in (tokenize.NL, tokenize.NEWLINE,
                                tokenize.COMMENT):
                previous = tok.string
    return names


def _readme_code() -> str:
    """The README's code: fenced blocks and inline code spans."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    fenced = re.findall(r"^```.*?^```", text, flags=re.M | re.S)
    inline = re.findall(r"`([^`\n]+)`", re.sub(r"^```.*?^```", "", text,
                                                flags=re.M | re.S))
    return "\n".join(fenced + inline)


def test_every_export_is_called_or_documented():
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            used |= _code_names(path)
    readme = set(re.findall(r"\w+", _readme_code()))
    idle = [name for name in latmin.__all__
            if name not in used and name not in readme]
    assert idle == []
