"""Input cache of the workloads.

``corpus_cases`` diagnoses simulated anomaly cases that take minutes to
generate, so they are generated once per checkout and kept as ``.npz``
files (via :func:`repro.evaluation.persistence.save_corpus`) under
``perfbench/.cache``.  ``fleet_stream`` simulates its fleet in every run;
its cache entry keeps only the digest of the encoded fleet.  A cache
directory is keyed by the workload name, its generation seed and config,
and a digest of the source files that generate the inputs, so an edit to
the simulator regenerates instead of silently reusing stale inputs.

Every cache directory holds a ``manifest.json`` recording the *content*
digest of its inputs (array bytes, not zip bytes, which carry
timestamps) and the digest of the files.  Each run re-checks the files;
results carry the content digest so two commits can be shown to have
measured the same cases.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.evaluation import CorpusConfig, generate_corpus
from repro.evaluation import persistence

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
CACHE_DIR = BENCH_DIR / ".cache"

#: The labelled corpus of ``corpus_cases``: the same config as the
#: benchmark suite's ``BENCH_CORPUS`` (a test pins the equality).
CORPUS_CONFIG = CorpusConfig(
    n_cases=32,
    seed=2022,
    delta_start_s=900,
    anomaly_length_s=(300, 600),
    n_businesses=(6, 12),
)

#: Source trees whose code decides the generated cases.
GENERATOR_SOURCES = (
    "src/repro/collection",
    "src/repro/core/case.py",
    "src/repro/dbsim",
    "src/repro/evaluation/dataset.py",
    "src/repro/evaluation/persistence.py",
    "src/repro/sqltemplate",
    "src/repro/timeseries",
    "src/repro/workload",
)


class InputDigestMismatch(RuntimeError):
    """Cached inputs no longer match the digest recorded when they were made."""


@dataclass(frozen=True)
class InputSpec:
    """One cached input set: a name, its generator and its cache key.

    ``generate(directory)`` writes the inputs (if any are kept as files)
    and returns their content digest.
    """

    name: str
    config: str
    generate: Callable[[Path], str]

    @property
    def key(self) -> str:
        h = hashlib.blake2b(digest_size=8)
        h.update(f"{self.name}|{self.config}|".encode())
        h.update(source_digest().encode())
        return h.hexdigest()

    @property
    def directory(self) -> Path:
        return CACHE_DIR / f"{self.name}-{self.key}"

    def manifest(self) -> dict:
        return json.loads((self.directory / "manifest.json").read_text())


def _corpus(directory: Path) -> str:
    persistence.save_corpus(generate_corpus(CORPUS_CONFIG), directory)
    return content_digest(directory)


def _fleet(directory: Path) -> str:
    # The fleet is simulated in every run's set-up; only its digest is
    # kept, so each run can tell a non-deterministic simulation.
    from perfbench import fleet_stream

    return fleet_stream.fleet_digest(fleet_stream.simulate_fleet())


def _fleet_config() -> str:
    from perfbench import fleet_stream

    return fleet_stream.CONFIG


SPECS = {
    "corpus_cases": InputSpec("corpus_cases", f"seed={CORPUS_CONFIG.seed} {CORPUS_CONFIG!r}", _corpus),
    "fleet_stream": InputSpec("fleet_stream", _fleet_config(), _fleet),
}


def source_digest() -> str:
    """blake2b over the generator sources (path + bytes, sorted)."""
    h = hashlib.blake2b(digest_size=16)
    for entry in GENERATOR_SOURCES:
        root = REPO_ROOT / entry
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in files:
            h.update(str(path.relative_to(REPO_ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def content_digest(directory: Path) -> str:
    """blake2b over every case's array names and bytes, in file order."""
    h = hashlib.blake2b(digest_size=16)
    for path in sorted(directory.glob("case_*.npz")):
        h.update(path.name.encode())
        with np.load(path) as data:
            for key in sorted(data.files):
                array = np.ascontiguousarray(data[key])
                h.update(f"{key}|{array.dtype.str}|{array.shape}".encode())
                h.update(array.tobytes())
    return h.hexdigest()


def file_digest(directory: Path) -> str:
    """blake2b over the cached ``.npz`` files' names and bytes."""
    h = hashlib.blake2b(digest_size=16)
    for path in sorted(directory.glob("case_*.npz")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def ensure(spec: InputSpec, log=print) -> dict:
    """Generate ``spec``'s cases unless cached; returns the manifest."""
    manifest_path = spec.directory / "manifest.json"
    if manifest_path.exists():
        return json.loads(manifest_path.read_text())
    log(f"[perfbench] generating {spec.name} inputs into {spec.directory.name}")
    t0 = time.perf_counter()
    partial = spec.directory.with_name(spec.directory.name + ".partial")
    if partial.exists():
        for path in partial.iterdir():
            path.unlink()
    partial.mkdir(parents=True, exist_ok=True)
    manifest = {
        "name": spec.name,
        "config": spec.config,
        "source_digest": source_digest(),
        "content_digest": spec.generate(partial),
        "file_digest": file_digest(partial),
        "generate_s": time.perf_counter() - t0,
    }
    (partial / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    partial.rename(spec.directory)
    log(f"[perfbench] generated {spec.name} in {manifest['generate_s']:.1f}s")
    return manifest


def ensure_all(log=print) -> None:
    """Fill every workload's cache (the first run in a checkout pays this).

    Missing inputs are generated by two child processes, the slowest
    input alone in one, so the fill takes about as long as that input.
    """
    missing = [
        name for name, spec in SPECS.items()
        if not (spec.directory / "manifest.json").exists()
    ]
    if len(missing) <= 1:
        for name in missing:
            ensure(SPECS[name], log=log)
        return
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)])
    children = [
        subprocess.Popen(
            [sys.executable, "-m", "perfbench.inputs", *group],
            cwd=REPO_ROOT, env=env, stdout=sys.stderr,
        )
        for group in (missing[:1], missing[1:])
    ]
    try:
        codes = [child.wait() for child in children]
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
                child.wait()
    if any(codes):
        raise RuntimeError(f"input generation failed (exit codes {codes})")


def load(spec: InputSpec):
    """Load the cached cases (the timed set-up of the case workloads).

    Looked up on the module so the traced run's wrapper sees the call.
    """
    return persistence.load_corpus(spec.directory)


def verify(spec: InputSpec) -> str:
    """Check the cached files against the manifest; returns the content digest.

    Hashing the files is cheap next to re-reading their arrays, and any
    change to the arrays changes the files.
    """
    manifest = spec.manifest()
    digest = file_digest(spec.directory)
    if digest != manifest["file_digest"]:
        raise InputDigestMismatch(
            f"{spec.name}: cached files digest {digest} != recorded "
            f"{manifest['file_digest']}"
        )
    return manifest["content_digest"]


if __name__ == "__main__":
    for name in sys.argv[1:]:
        ensure(SPECS[name], log=lambda message: print(message, flush=True))
