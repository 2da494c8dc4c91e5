"""Bundled example algebras, usable from the CLI (``corpus``) and tests."""

CORPUS: dict[str, str] = {
    "example1": (
        "# two-dimensional left Leibniz algebra\n"
        "name: example1\n"
        "dim: 2\n"
        "side: left\n"
        "f 1 1 2 = 1\n"
        "f 1 2 2 = 1\n"
    ),
    "example2": (
        "# two-dimensional right Leibniz algebra\n"
        "name: example2\n"
        "dim: 2\n"
        "side: right\n"
        "f 1 1 2 = 1\n"
        "f 2 1 2 = 1\n"
    ),
    "example3": (
        "# two-dimensional two-sided Leibniz algebra\n"
        "name: example3\n"
        "dim: 2\n"
        "side: both\n"
        "f 1 1 2 = 1\n"
    ),
    "example4": (
        "# three-dimensional right Leibniz algebra\n"
        "name: example4\n"
        "dim: 3\n"
        "side: right\n"
        "f 1 1 2 = 1\n"
        "f 2 1 3 = 1\n"
    ),
}


def names() -> list[str]:
    return sorted(CORPUS)


def text(name: str) -> str:
    try:
        return CORPUS[name]
    except KeyError:
        raise KeyError(
            f"unknown corpus entry {name!r}; available: " + ", ".join(names())
        ) from None
