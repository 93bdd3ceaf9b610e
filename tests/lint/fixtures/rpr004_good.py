"""RPR004 fixture: downward and deferred imports (lint as repro.viz.fake)."""

import math

from repro.data import fields

__all__ = ["math", "fields", "render"]


def render(dataset, path):
    from repro.core.store import ResultStore  # deferred: crosses up at call time

    return ResultStore(path).meta.get(str(dataset))
