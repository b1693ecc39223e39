"""Output bytes pinned by digest: every command's outputs on fixed inputs
must hash to ``golden.json``.

The inputs (``synth`` bundles of fixed seeds and one ``throughput_bundle``)
and the outputs are hashed apart, so a failure says whether the generator
or the pipeline moved. Commands run in process, from the work directory
with relative paths, so provenance records hold no machine paths.

A change that moves outputs on purpose regenerates the file with
``PYTHONPATH=src python tests/test_golden.py --write`` and says which
digests moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np
import scipy

from tmeseg.aggregate import RULES, aggregate, tile_cells
from tmeseg.cli import cli
from tmeseg.config import MITOSIS_ROI_RADIUS_PX, RunConfig
from tmeseg.container import (
    BundleReader,
    container_from_logits,
    load_instances,
    save_bundle,
    save_stack,
)
from tmeseg.raster import LogitStack
from tmeseg.synth import build_bundle, random_scene, throughput_bundle
from tmeseg.taxonomy import VOCABULARY

GOLDEN = Path(__file__).with_name("golden.json")
# (name, synth arguments): between them and the throughput bundle, every
# rule fires (vote, undefined, both fallbacks, mitosis), synth-11 has more
# candidates than one mitosis batch, and synth-tall is cut into five row
# bands by the default crop and stride, with nuclei and mitosis ROI boxes
# across their borders (``test_the_tall_frame_crosses_band_borders``)
_LARGE = ["--height", "160", "--width", "224", "--max-nuclei", "60", "--max-candidates", "40"]
_TALL = ["--height", "1400", "--width", "300", "--max-nuclei", "300", "--max-candidates", "40"]
SYNTH = (
    ("synth-5", ["--seed", "5"]),
    ("synth-6", ["--seed", "6", *_LARGE]),
    ("synth-11", ["--seed", "11", *_LARGE]),
    ("synth-tall", ["--seed", "7", *_TALL]),
)
THROUGHPUT = "throughput-512"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(*argv: str) -> str:
    """Run one command in process; returns its stdout, which must end in exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli(list(argv))
    assert code == 0, (argv, code)
    return out.getvalue()


def _student(nuclei_path: Path, path: Path) -> None:
    """A full-vocabulary student logit container over the frame of
    ``nuclei_path``: small exact float32 values from integer arithmetic."""
    h, w = load_instances(nuclei_path)[0].shape
    yy, xx = np.mgrid[:h, :w]
    planes = np.stack(
        [((yy * (c + 3) + xx * (2 * c + 1) + c) % 23 - 11) / 4 for c in VOCABULARY.ids]
    ).astype(np.float32)
    save_stack(container_from_logits(LogitStack(tuple(VOCABULARY.ids), planes)), path)


def _result_digest(manifest: Path) -> str:
    """The in-process ``aggregate`` result, with what the CLI does not write:
    mitosis region ids and each nucleus's votes and level hits."""
    with BundleReader(manifest) as reader:
        res = aggregate(reader)
    rule, votes, fired = (a.tolist() for a in res.provenance)
    decisions = {
        str(g): [RULES[r], [[c - 1, n] for c, n in enumerate(row) if n], hits]
        for g, r, row, hits in zip(res.instances.gids.tolist(), rule, votes, fired)
    }
    doc = json.dumps({"classes": sorted(res.classes.items()), "decisions": decisions})
    return _sha(res.semantic.tobytes() + res.mitosis.ids.tobytes() + doc.encode())


def _prepare(name: str, truth: bool) -> None:
    """The inputs besides the bundle: a student logit file and, with truth,
    an evaluation map of every class a nucleus can end with."""
    _student(Path(f"{name}/nuclei.tmef"), Path(f"{name}/student.tmef"))
    if truth:
        names = [VOCABULARY.name_of(c) for c in range(2, 15)]
        doc = {"eval_classes": names, "map": {n: n for n in names}}
        Path(f"{name}/map.json").write_text(json.dumps(doc))


def _commands(name: str, truth: bool) -> dict[str, str]:
    """Run every command on bundle ``name``; the SHA-256 of each output
    file and printed stdout, keyed by relative path."""
    files: list[str] = []
    printed: dict[str, str] = {}
    for workers in ("1", "2"):
        pred = f"{name}/aggregate-w{workers}/pred.tmef"
        Path(pred).parent.mkdir()
        _run("aggregate", "--bundle", f"{name}/bundle.json", "--out", pred, "--workers", workers)
        files += [pred.replace(".tmef", s) for s in (".tmef", ".classes.json", ".provenance.json")]
    for mode, extra in (("force", []), ("panoptic", ["--nuclei", f"{name}/nuclei.tmef"])):
        dest = f"{name}/postprocess-{mode}.tmef"
        _run("postprocess", "--student", f"{name}/student.tmef", "--mode", mode, "--out", dest,
             *extra)
        files += [dest, dest.replace(".tmef", ".provenance.json")]
    files.append(f"{name}/postprocess-panoptic.classes.json")
    pred = f"{name}/aggregate-w1/pred.tmef"
    commands = [("count", ["--mask", pred]), ("tme", ["--mask", pred])]
    if truth:
        commands.append(("evaluate", [
            "--gt", f"{name}/truth_semantic.tmef", "--pred", pred, "--map", f"{name}/map.json",
            "--nuclei", f"{name}/nuclei.tmef", "--gt-classes", f"{name}/truth.json",
        ]))
    for command, args in commands:
        report = f"{name}/{command}.json"
        printed[f"{report}:stdout"] = _run(command, *args, "--out", report)
        files += [report, f"{name}/{command}.provenance.json"]
    printed[f"{pred}:info"] = _run("info", pred)
    out = {f: _sha(Path(f).read_bytes()) for f in files}
    out.update({k: _sha(v.encode()) for k, v in printed.items()})
    out[f"{name}/aggregate-result"] = _result_digest(Path(f"{name}/bundle.json"))
    return out


def compute(work: Path) -> dict:
    """The whole golden document, with ``work`` as the scratch directory."""
    old = os.getcwd()
    os.chdir(work)
    try:
        for name, args in SYNTH:
            _run("synth", *args, "--out-dir", name, "--truth")
        save_bundle(throughput_bundle(512), THROUGHPUT)
        bundles = [(name, True) for name, _ in SYNTH] + [(THROUGHPUT, False)]
        for name, truth in bundles:
            _prepare(name, truth)
        inputs = {
            p.as_posix(): _sha(p.read_bytes())
            for name, _ in bundles
            for p in sorted(Path(name).iterdir())
        }
        outputs: dict[str, str] = {}
        for name, truth in bundles:
            outputs.update(_commands(name, truth))
    finally:
        os.chdir(old)
    return {
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
        "inputs": inputs,
        "outputs": outputs,
    }


def _moved(got: dict, want: dict) -> list[str]:
    return sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))


def test_outputs_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = compute(tmp_path)
    assert _moved(got["inputs"], golden["inputs"]) == [], (
        "the input generators moved", golden["versions"], got["versions"]
    )
    assert _moved(got["outputs"], golden["outputs"]) == [], (
        "the outputs moved", golden["versions"], got["versions"]
    )


def test_the_tall_frame_crosses_band_borders():
    # the synth-tall bundle: a nucleus and a candidate's ROI box each span
    # a border between two row bands of the default crop and stride
    bundle = build_bundle(random_scene(7, 1400, 300, max_nuclei=300, max_candidates=40))
    bands = {rows.start: rows for rows, _ in tile_cells(bundle.shape, RunConfig())}
    assert len(bands) == 5
    borders = np.array(sorted(bands)[1:])
    nuclei = bundle.nuclei
    top = np.full(nuclei.gids.size, bundle.shape[0])
    bottom = np.zeros(nuclei.gids.size, dtype=np.intp)
    np.minimum.at(top, nuclei.slot, nuclei.index // bundle.shape[1])
    np.maximum.at(bottom, nuclei.slot, nuclei.index // bundle.shape[1])
    assert ((top[:, None] < borders) & (bottom[:, None] >= borders)).any()
    r = MITOSIS_ROI_RADIUS_PX
    box_tops = np.ceil(np.array([y for _, y, _ in bundle.mitosis_candidates]) - r)
    assert ((box_tops[:, None] < borders) & (box_tops[:, None] + 2 * r >= borders)).any()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        doc = compute(Path(tmp))
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}: {len(doc['inputs'])} inputs, {len(doc['outputs'])} outputs")
