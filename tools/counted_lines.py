"""Print the counted lines of each module of src/stabcut and their total.

A counted line holds a token other than a comment, newline, indent or
dedent; a docstring or other multi-line string counts every line it spans.
Blank lines, comment lines and the lines a statement continues onto without
a token of its own do not count. This is the figure ROADMAP.md quotes.

    python tools/counted_lines.py
"""

import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "stabcut"
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def counted_lines(path) -> int:
    lines = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in SKIPPED:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main():
    total = 0
    for path in sorted(SRC.glob("*.py")):
        count = counted_lines(path)
        total += count
        print("%-16s %5d" % (path.stem, count))
    print("%-16s %5d" % ("total", total))


if __name__ == "__main__":
    main()
