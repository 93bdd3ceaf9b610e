"""RPR001 fixture: a hand-rolled log, sanctioned only in a durability module."""

import os


def append_record(path, line):
    with open(path, "a") as fh:
        fh.write(line + "\n")
        fh.flush()
        os.fsync(fh.fileno())
