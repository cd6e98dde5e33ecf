"""Golden digests of the JSON writers' bytes on small seeded clouds.

The digests were taken from the ``json.dumps(obj, indent=2,
sort_keys=True) + "\\n"`` writers, before the shared ``json_text`` writer
replaced them.  Equal digests mean the `betti`, `rigid` and `sweep`
subcommands, ``RipsComplex2.to_json`` and ``CloudConfig.to_json`` write
the same bytes.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from exactrips.cli import main
from exactrips.digits import format_rational
from exactrips.harness import default_sheets
from exactrips.rips import build_complex
from exactrips.space import CloudConfig, build_cloud, scale_window

GOLDEN = {
    1: {
        "betti": "9e7e31d7e7f0287d698f3afe3331597b41de09577d376e77bdc5d405d0f21260",
        "complex": "079b966ce4f6fbf2fece9f02cf727b5de9afa7e22b200b213e1f33328d99732d",
        "config": "c9f556d93b446fd8ee919c8bfe522e24c3c0e43275621fe6f4b718e85d6118e4",
        "rigid": "6de68dbb25d49f576e22f26bdabcd4681bcc0cef504e5e696e8417fcdc34c5ab",
        "sweep": "b7693497ab6c99966f79338da85868794c9034ad366c981eb99a4e6f89a3fd24",
    },
    2: {
        "betti": "092302b14919f6904cd9d8c2e0faad379ca2b6cbddf009beb011efbf5568f89f",
        "complex": "6474a3894b7341428108fd528eb04d1ec0d03906dd581b7b7037fed64da4c151",
        "config": "2796d328073d43ebd9258883b4cc669d1eb02d0ebbf05a48a4421a98affb36e8",
        "rigid": "5314a595dd43d0a2a74f6e334d6b02e53b509da949549e865b4358f962f8b3dd",
        "sweep": "bf4b400b08f8fe412d443fa5435bc3f9516cc90fa52ac4606fe689c9aaa79818",
    },
    3: {
        "betti": "242c6e4365891016a7219ef6ffb7fcbd014f59b41c4580b77409030afd98d2ac",
        "complex": "2998a7448cdc9fb9f88e17a70e6ce7bb4ee6f9d833925ff1c42c615746d15f91",
        "config": "2608c6e1928b2e8cc04ecfb59fc72a9836747a33568d0e2e5938e882f3287fc7",
        "rigid": "d6acca18a209eb15e8e1c36c0920b7f34bf8db22f41add26995a88304988d5eb",
        "sweep": "abb9b9582e45c4abce66f700eb9b46e577c6ea9ea3239dbada021468efa163f8",
    },
}


# Seed 1's `sweep` at the window ends and the 7 interior eighths of the
# window, taken before sweeps reused repeated row runs and Betti numbers:
# its first eight complexes are equal.
SWEEP9 = "5fe9f40d95bfbb773d1cc3478eb7b30729c8996fb6e0cb4b47c6423c4220fade"


def seeded_config(seed: int) -> CloudConfig:
    """2-4 sheets, two seeded x values, partners at the lower window end,
    cube grid 1 on both slabs: 20-32 points."""
    rng = random.Random(seed)
    lo, _ = scale_window()
    return CloudConfig(
        sheets=default_sheets(rng.randint(2, 4)),
        scale=lo,
        x_values=tuple(Fraction(v, 3**6) for v in rng.sample(range(3**6 + 1), 2)),
        cube_grid=1,
        include_cube0=True,
    )


def json_outputs(seed: int, workdir) -> dict[str, bytes]:
    """The bytes each JSON writer produces for the seeded cloud."""
    cfg = seeded_config(seed)
    cloud = build_cloud(cfg)
    lo, hi = scale_window()
    mid = (lo + hi) / 2
    cloud_path = workdir / "cloud.csv"
    cloud_path.write_text(cloud.to_csv_text())
    out = {
        "config": cfg.to_json().encode(),
        "complex": build_complex(cloud, mid).to_json().encode(),
    }
    runs = {
        "betti": ["--scale", format_rational(mid)],
        "rigid": ["--scale", format_rational(lo)],
        "sweep": ["--scales", ",".join(format_rational(a) for a in (lo, mid, hi))],
    }
    for command, args in runs.items():
        path = workdir / f"{command}.json"
        code = main([command, "--cloud", str(cloud_path), *args, "--out", str(path)])
        assert code == 0, command
        out[command] = path.read_bytes()
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_json_writer_bytes(seed, tmp_path):
    digests = {
        name: hashlib.sha256(data).hexdigest()
        for name, data in json_outputs(seed, tmp_path).items()
    }
    assert digests == GOLDEN[seed]


def test_nine_scale_sweep_bytes(tmp_path):
    cloud_path = tmp_path / "cloud.csv"
    cloud_path.write_text(build_cloud(seeded_config(1)).to_csv_text())
    lo, hi = scale_window()
    scales = ",".join(format_rational(lo + (hi - lo) * k / 8) for k in range(9))
    path = tmp_path / "sweep.json"
    assert main(["sweep", "--cloud", str(cloud_path), "--scales", scales, "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SWEEP9
