# repro-lint: scope=hot
"""Fixture: one-shot encoding then one write, and look-alikes — clean."""

import json
import pickle


def save(obj, fh):
    fh.write(json.dumps(obj, separators=(",", ":")))


def load(fh):
    return json.load(fh)


def other_dumps(obj, fh, sink):
    pickle.dump(obj, fh)
    sink.dump(obj)
