"""Class-conditional toy datasets and netpbm (PPM/PGM) image files.

Each dataset kind maps a class id deterministically to generative parameters:
solid_color picks a palette color, gaussian_blob places a bump, and
checkerboard_freq selects a spatial frequency. Pixel values live in [-1, 1].
The additive noise of a batch is one stream from its generator in row order,
so the images and the generator's final state do not depend on how many rows
are drawn at a time.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError, ParseError

KINDS = ("solid_color", "gaussian_blob", "checkerboard_freq")

# saturated palette for small class counts; kept away from +-1 so additive
# noise rarely clips (which would bias per-class means)
_BASE_COLORS = [
    (0.6, -0.6, -0.6), (-0.6, 0.6, -0.6), (-0.6, -0.6, 0.6),
    (0.6, 0.6, -0.6), (0.6, -0.6, 0.6), (-0.6, 0.6, 0.6),
]


@dataclass
class ToyDatasetSpec:
    kind: str = "solid_color"
    num_classes: int = 3
    resolution: tuple[int, int] = (16, 16)
    samples_per_class: int = 256
    noise_std: float = 0.1
    seed: int = 0
    channels: int = 3

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown dataset kind {self.kind!r}; choose from {KINDS}")

        def count(v):
            return isinstance(v, numbers.Integral) and v >= 1

        # comparisons, so that NaN fails every one
        ranges = {
            "num_classes": (count(self.num_classes), "a whole number >= 1"),
            "resolution": (np.shape(self.resolution) == (2,)
                           and all(map(count, self.resolution)), "two whole numbers >= 1"),
            "samples_per_class": (count(self.samples_per_class), "a whole number >= 1"),
            "noise_std": (0 <= self.noise_std < math.inf, "finite and >= 0"),
            "seed": (isinstance(self.seed, numbers.Integral) and self.seed >= 0,
                     "a whole number >= 0"),
            "channels": (count(self.channels), "a whole number >= 1"),
        }
        for name, (ok, allowed) in ranges.items():
            if not ok:
                raise ConfigError(f"{name} must be {allowed}, got {getattr(self, name)!r}")


def class_color(k: int, channels: int = 3) -> np.ndarray:
    """Deterministic per-class color, independent of the dataset seed."""
    if channels == 3 and k < len(_BASE_COLORS):
        return np.array(_BASE_COLORS[k])
    rng = np.random.default_rng(np.random.SeedSequence(entropy=91_76, spawn_key=(7, k)))
    return rng.uniform(-0.6, 0.6, size=channels)


def _blob_center(k: int, num_classes: int, shape) -> tuple[float, float]:
    H, W = shape
    angle = 2.0 * np.pi * k / max(num_classes, 1)
    return (H / 2 + 0.25 * H * np.sin(angle), W / 2 + 0.25 * W * np.cos(angle))


def _clean_image(spec: ToyDatasetSpec, k: int) -> np.ndarray:
    H, W = spec.resolution
    C = spec.channels
    if spec.kind == "solid_color":
        return np.broadcast_to(class_color(k, C).reshape(C, 1, 1), (C, H, W)).copy()
    if spec.kind == "gaussian_blob":
        cy, cx = _blob_center(k, spec.num_classes, (H, W))
        yy, xx = np.mgrid[0:H, 0:W]
        r = min(H, W) / 6.0
        bump = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * r * r))
        return np.broadcast_to(-0.8 + 1.5 * bump, (C, H, W)).copy()
    # checkerboard_freq: class k gives k+1 full cycles along each axis
    f = k + 1
    yy, xx = np.mgrid[0:H, 0:W]
    parity = ((yy * 2 * f // H) + (xx * 2 * f // W)) % 2
    return np.broadcast_to(np.where(parity == 0, 0.7, -0.7), (C, H, W)).copy()


# Rows that generate_toy_batch draws, clips and converts in one pass. Its
# float64 temporaries (the gathered clean images and the noise) are each one
# chunk, 0.8 MB at 3x16x16, whatever the dataset's size or class count, so
# they stay in a core's 2 MB L2 and set-up's peak memory does not grow with
# the dataset. Desk dataset (768 samples, 3x16x16, noise 0.1) on a 2-core
# Xeon, median ms of 40 interleaved builds: 32 rows 13.5, 64 13.4, 128 12.8,
# 256 14.1, all 768 in one chunk 15.7 (the per-sample loop: 22-28).
_CHUNK_ROWS = 128


def generate_toy_batch(spec: ToyDatasetSpec, class_ids, rng: np.random.Generator) -> np.ndarray:
    """Images in [-1, 1] for the given class ids; deterministic for a given rng state.

    The noise is one stream in row order: ``Generator.normal`` fills its output
    row-major, so a chunk of rows draws exactly what one (C, H, W) draw per row
    would. The images and the generator's final state do not depend on the
    chunking.
    """
    class_ids = np.asarray(class_ids, dtype=np.int64)
    if np.any(class_ids < 0) or np.any(class_ids >= spec.num_classes):
        raise InputError(f"class ids must lie in [0, {spec.num_classes}), got {class_ids}")
    H, W = spec.resolution
    out = np.empty((len(class_ids), spec.channels, H, W), dtype=np.float32)
    for start in range(0, len(class_ids), _CHUNK_ROWS):
        ids = class_ids[start:start + _CHUNK_ROWS]
        present, row_class = np.unique(ids, return_inverse=True)
        img = np.stack([_clean_image(spec, int(k)) for k in present])[row_class]
        if spec.noise_std > 0:
            img += rng.normal(scale=spec.noise_std, size=img.shape)
        out[start:start + len(ids)] = np.clip(img, -1.0, 1.0, out=img)
    return out


@dataclass
class ToyDataset:
    spec: ToyDatasetSpec
    images: np.ndarray  # (N, C, H, W) float32 in [-1, 1]
    labels: np.ndarray  # (N,) int64


def make_dataset(spec: ToyDatasetSpec) -> ToyDataset:
    """Materialize the full dataset, class-major, deterministic in spec.seed."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed, spawn_key=(2,)))
    labels = np.repeat(np.arange(spec.num_classes), spec.samples_per_class)
    images = generate_toy_batch(spec, labels, rng)
    return ToyDataset(spec=spec, images=images, labels=labels.astype(np.int64))


# ---------------------------------------------------------------------------
# netpbm I/O (binary P6 for RGB, P5 for grayscale, maxval 255)
# ---------------------------------------------------------------------------

def write_image(path, img: np.ndarray):
    """Write (C, H, W) values in [-1, 1] as 8-bit binary PPM (C=3) or PGM (C=1)."""
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[0] not in (1, 3):
        raise InputError(f"expected (C, H, W) with C in (1, 3), got {img.shape}")
    C, H, W = img.shape
    levels = np.clip(np.rint((img + 1.0) * 0.5 * 255.0), 0, 255).astype(np.uint8)
    magic = b"P6" if C == 3 else b"P5"
    payload = levels.transpose(1, 2, 0).tobytes() if C == 3 else levels[0].tobytes()
    with open(path, "wb") as f:
        f.write(magic + b"\n%d %d\n255\n" % (W, H))
        f.write(payload)


def read_image(path) -> np.ndarray:
    """Read a binary PPM/PGM into (C, H, W) floats in [-1, 1]."""
    with open(path, "rb") as f:
        blob = f.read()
    pos = 0

    def token():
        nonlocal pos
        # skip whitespace and '#' comments
        while pos < len(blob):
            ch = blob[pos:pos + 1]
            if ch.isspace():
                pos += 1
            elif ch == b"#":
                while pos < len(blob) and blob[pos:pos + 1] != b"\n":
                    pos += 1
            else:
                break
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ParseError("unexpected end of header", offset=start)
        return blob[start:pos]

    magic = token()
    if magic not in (b"P6", b"P5"):
        raise ParseError(f"unsupported netpbm magic {magic!r}", offset=0)
    try:
        W, H, maxval = int(token()), int(token()), int(token())
    except ValueError:
        raise ParseError("non-integer value in header", offset=pos) from None
    if W < 1 or H < 1:
        raise ParseError(f"width and height must be positive, got {W}x{H}", offset=pos)
    if maxval != 255:
        raise ParseError(f"only maxval 255 supported, got {maxval}", offset=pos)
    pos += 1  # single whitespace byte after maxval
    C = 3 if magic == b"P6" else 1
    need = W * H * C
    if len(blob) - pos < need:
        raise ParseError(
            f"payload truncated: need {need} bytes, have {len(blob) - pos}", offset=pos
        )
    data = np.frombuffer(blob, dtype=np.uint8, count=need, offset=pos)
    if C == 3:
        img = data.reshape(H, W, 3).transpose(2, 0, 1)
    else:
        img = data.reshape(1, H, W)
    return img.astype(np.float32) / 255.0 * 2.0 - 1.0
