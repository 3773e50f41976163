"""Every CLI example in README.md, run in process: its stdout must keep the
sha256 recorded below.  The digests were taken before connected sums became
multisets with block lattices, so a match shows the reports are
byte-identical.  A changed example needs its digest re-recorded, with the
reason in CHANGES.md."""

import contextlib
import hashlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from fourfold.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# command line as written in the README -> (exit code, stdout sha256)
GOLDEN = {
    "fourfold catalog":
        (0, "fed705079e266dbc010a44db632758fe182d57bb01cefb2d5ac2c85431022792"),
    "fourfold catalog K3":
        (0, "3c5fff8743395e8f965592937254b9f8662d7ede3213dbaccc07871af970121b"),
    'fourfold build "2*Sigma(3,3) # 18*CP2bar"':
        (0, "77e3f04dae01451e09e75092fb5b59a29d5d410209a958509e8343fa5dca354f"),
    'fourfold invariants "2*Sigma(3,3)"':
        (0, "fe139ecfe463a70763be883fec8a9528d444d54b202f92c62aec6e81ab855671"),
    'fourfold invariants "2*Sigma(3,3)" --k 2/3':
        (0, "5329ffa2a888c9e604d425b93169c234d74627aa82589ddab88d6882fb60c0e9"),
    'fourfold beta2 "2*Sigma(3,3) # CP2bar"':
        (0, "761257fc5cee37bf7a25976de5cc1fb90284705dbb534917545e32a9d3b53c11"),
    'fourfold check einstein "2*Sigma(3,3) # 18*CP2bar"':
        (0, "f6550ee18b84e8d170cd887e522c076d07b0bbc86e8b86581b4b1544b9b9d8e6"),
    'fourfold check ght "Sigma(3,3) # K3" --c4 1':
        (0, "fb36a9d8d2ea8daf48197402573c742746ff582e3748e5d976c7828242fbc04e"),
    'fourfold --catalog my-blocks.json check exotic "Xns # Kodaira"':
        (0, "8e2d31ffbcb1064e9202232e9b94fe9d917ed1c512e4951622b924e008a47ca2"),
    "fourfold search --mode spin --g 3 --h 3 --mmax 4 --nmax 6 --c4 1":
        (0, "87d9b48c8c8429f8a30f0552c1886f09237d275dd714f32326c0828814575b74"),
}


def _fenced_blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def readme_examples() -> list[str]:
    """The `fourfold ...` lines of the README's shell blocks, comments cut."""
    lines = []
    for block in _fenced_blocks("sh"):
        for line in block.splitlines():
            if line.startswith("fourfold "):
                lines.append(shlex.join(shlex.split(line, comments=True)))
    return lines


def _canonical(command: str) -> str:
    return shlex.join(shlex.split(command))


def test_every_readme_example_has_a_digest():
    assert sorted(readme_examples()) == sorted(_canonical(c) for c in GOLDEN)


@pytest.fixture(scope="module")
def custom_catalog(tmp_path_factory):
    """The README's custom-block JSON, standing in for my-blocks.json."""
    (doc,) = _fenced_blocks("json")
    path = tmp_path_factory.mktemp("readme") / "my-blocks.json"
    path.write_text(json.dumps(json.loads(doc)))
    return str(path)


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_readme_example_output_is_unchanged(command, custom_catalog):
    argv = [custom_catalog if a == "my-blocks.json" else a
            for a in shlex.split(command)[1:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, hashlib.sha256(out.getvalue().encode()).hexdigest()) == GOLDEN[command], (
        err.getvalue())
