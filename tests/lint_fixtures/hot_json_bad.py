# repro-lint: scope=hot
"""Fixture: the streaming JSON encoder, under every name it can have."""

import json
import json as js
from json import dump
from json import dump as write_json


def save(obj, fh):
    json.dump(obj, fh)                       # HOT203: module attribute
    js.dump(obj, fh)                         # HOT203: module alias
    dump(obj, fh)                            # HOT203: from json import dump
    write_json(obj, fh, separators=(",", ":"))   # HOT203: renamed import
