"""Count the code lines of each .py file under a directory, and their total.

    python tools/code_lines.py src/voicegroup

A code line holds a token other than a comment, a NL, NEWLINE, INDENT or
DEDENT, or a string statement (a docstring), so blank, comment and
docstring lines are not counted; a token that spans lines, such as a
triple-quoted string in an expression, counts on each line it spans.
"""

import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    lines = set()
    statement = []  # the tokens of the logical line read so far
    with path.open(encoding="utf-8") as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            elif tok.type not in _LAYOUT:
                statement.append(tok)
    return len(lines)


def main(directory: str) -> None:
    total = 0
    for path in sorted(Path(directory).rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1])
