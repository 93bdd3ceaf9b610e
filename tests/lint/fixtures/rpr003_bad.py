"""RPR003 fixture: pickle (de)serialization, banned everywhere."""

import pickle
from pickle import dumps


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


def freeze(obj):
    return dumps(obj)
