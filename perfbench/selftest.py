"""Show that the output checks catch a single sign-flipped row.

    python3 perfbench/selftest.py

Run from the repository root. Writes small outputs with the CLI, checks
that they pass, flips the sign of one value and checks that the same
check now reports a problem. Exit status 0 when every corruption is
caught, 1 otherwise.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

from checks import check_output  # noqa: E402
from wigner_nonstd import cli  # noqa: E402
from wigner_nonstd.verify import DEFAULT_TOLERANCES  # noqa: E402

OUT = Path.cwd() / ".bench_out" / "selftest"


def _flippable(value: float) -> bool:
    # a unit-modulus entry is alone in its row, so flipping it keeps unitarity
    return 0.1 < abs(value) < 0.99


def flip_json_table(src: Path, dst: Path) -> None:
    payload = json.loads(src.read_text(encoding="utf-8"))
    row = next(r for r in payload["rows"] if _flippable(abs(complex(*r["value"]))))
    row["value"] = [-row["value"][0], -row["value"][1]]
    dst.write_text(json.dumps(payload), encoding="utf-8")


def flip_csv_table(src: Path, dst: Path) -> None:
    with open(src, encoding="utf-8", newline="") as fh:
        records = list(csv.reader(fh))
    re_col = records[0].index("re")
    row = next(r for r in records[1:]
               if _flippable(abs(complex(float(r[re_col]), float(r[re_col + 1])))))
    row[re_col], row[re_col + 1] = repr(-float(row[re_col])), repr(-float(row[re_col + 1]))
    with open(dst, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(records)


def flip_export(src: Path, dst: Path) -> None:
    payload = json.loads(src.read_text(encoding="utf-8"))
    matrix = payload["exports"][0]["operators"]["j_plus"]
    row = next(r for r in matrix if any(re or im for re, im in r))
    col = next(i for i, (re, im) in enumerate(row) if re or im)
    row[col] = [-row[col][0], -row[col][1]]
    dst.write_text(json.dumps(payload), encoding="utf-8")


CASES = (
    ("cg", "json", 1, ["tabulate-cg", "--j1", "1", "--j2", "1/2", "--r=-7/3"], flip_json_table),
    ("cg", "csv", 1, ["tabulate-cg", "--j1", "1", "--j2", "1/2", "--r=-7/3", "--format", "csv"],
     flip_csv_table),
    ("standard", "json", 1, ["tabulate-standard", "--symbol", "threejm",
                             "--j1", "1", "--j2", "1", "--j3", "1"], flip_json_table),
    ("export", "json", 1, ["export-ops", "--j", "3/2", "--r=0.37"], flip_export),
)


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    ok = True
    for kind, fmt, r_count, argv, flip in CASES:
        clean, flipped = OUT / f"{kind}.{fmt}", OUT / f"{kind}-flipped.{fmt}"
        if cli.main(argv + ["--output", str(clean)]) != 0:
            print(f"FAIL {kind}/{fmt}: the CLI job failed")
            ok = False
            continue
        flip(clean, flipped)
        before = check_output(kind, str(clean), fmt, DEFAULT_TOLERANCES, r_count)
        after = check_output(kind, str(flipped), fmt, DEFAULT_TOLERANCES, r_count)
        caught = not before and bool(after)
        ok = ok and caught
        print(f"{'ok  ' if caught else 'FAIL'} {kind}/{fmt}: clean output passes={not before}, "
              f"flipped row caught={bool(after)} {after[:1]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
