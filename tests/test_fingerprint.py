import json

import fingerprint


def test_fingerprint_repeats_and_ignores_the_thread_count(tmp_path, capsys):
    # the small mode of the bit-identity script: two runs in one process,
    # and runs with a serial and a 2-worker pool, give the same lines
    first = fingerprint.fingerprint_lines(small=True, threads=1)
    assert fingerprint.fingerprint_lines(small=True, threads=1) == first
    assert fingerprint.fingerprint_lines(small=True, threads=2) == first
    lines = [json.loads(line) for line in first]
    assert [sum(line["kind"] == kind for line in lines)
            for kind in ("fit", "cv", "table1")] == [24, 7, 6]

    # a moved bit in one fit is found, named and measured by --compare
    same, moved = tmp_path / "a.txt", tmp_path / "b.txt"
    fingerprint.main([str(same), "--small"])
    assert same.read_text().splitlines() == first
    capsys.readouterr()
    fingerprint.main(["--compare", str(same), str(same)])
    table1 = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("table1 ")]
    assert len(table1) == 6 and all(line.endswith(": no median moved") for line in table1)
    fit = lines[0]
    fit["beta"][0] = float.hex(float.fromhex(fit["beta"][0]) + 2.0 ** -40)
    moved.write_text("\n".join([json.dumps(fit), *first[1:]]) + "\n")
    capsys.readouterr()
    fingerprint.main(["--compare", str(same), str(moved)])
    report = capsys.readouterr().out
    assert "files differ" in report and "fits: 23 of 24 lines identical" in report
    assert f"largest sup-norm gap in beta: {2.0 ** -40:.3g} ({fit['id']})" in report
    assert "CHANGED" not in report
