"""Machine-checkable certificates and run manifests.

A Certificate bundles the parameters of a construction or search, the
outcome of each verification predicate (with a witness whenever one
fails), measured quantities, and the seed record.  Serialization is a
single JSON document with sorted keys so that identical runs produce
byte-identical files.
"""

import json
import time


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    return repr(value)


class Certificate:
    def __init__(self, name):
        self.name = name
        self.parameters = {}
        self.predicates = {}
        self.measurements = {}
        self.seeds = {}

    def set_param(self, key, value):
        self.parameters[key] = _jsonable(value)

    def add_predicate(self, key, passed, witness=None):
        entry = {"passed": bool(passed)}
        if witness is not None:
            entry["witness"] = _jsonable(witness)
        self.predicates[key] = entry

    def add_measurement(self, key, value):
        self.measurements[key] = _jsonable(value)

    def record_rng(self, rng):
        self.seeds["seed"] = rng.seed
        self.seeds["label"] = rng.label

    def passed(self, key):
        return self.predicates[key]["passed"]

    def all_passed(self):
        return all(entry["passed"] for entry in self.predicates.values())

    def to_dict(self):
        return {
            "name": self.name,
            "parameters": self.parameters,
            "predicates": self.predicates,
            "measurements": self.measurements,
            "seeds": self.seeds,
        }

    def to_json_bytes(self):
        text = json.dumps(self.to_dict(), sort_keys=True, indent=2)
        return (text + "\n").encode("utf-8")

    def write(self, path):
        with open(path, "wb") as fh:
            fh.write(self.to_json_bytes())


def make_manifest(command, params, seed, inputs, outputs, started_at=None):
    """Record of one CLI run, sufficient to replay it exactly.

    Wall-clock fields are informational only; replays are compared on the
    instance and certificate files, never on the manifest itself.
    """
    wall_ms = None
    if started_at is not None:
        wall_ms = int((time.monotonic() - started_at) * 1000)
    return {
        "command": command,
        "params": _jsonable(params),
        "seed": seed,
        "inputs": _jsonable(inputs),
        "outputs": _jsonable(outputs),
        "wall_clock_ms": wall_ms,
        "format_version": 1,
    }


def write_manifest(path, manifest):
    with open(path, "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
