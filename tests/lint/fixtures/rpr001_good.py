"""RPR001 fixture: sanctioned I/O — reads and in-place tail truncation."""


def read(path):
    with open(path) as fh:
        return fh.read()


def truncate_tail(path, keep):
    with open(path, "r+b") as fh:
        fh.truncate(keep)


def open_dynamic(path, mode):
    return open(path, mode)
