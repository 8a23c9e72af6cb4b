"""Call-counting spies for the tests."""

from collections import Counter


def count_calls(monkeypatch, owner, names, calls=None):
    """Wrap each attribute of owner (a module or a class) named in names,
    through monkeypatch, so that every call is counted.  Returns calls, a
    Counter by name that grows as they are called: a new one unless given,
    so that several owners can share one."""
    calls = Counter() if calls is None else calls

    def spy(name, inner):
        def counted(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return counted

    for name in names:
        monkeypatch.setattr(owner, name, spy(name, getattr(owner, name)))
    return calls


def count_products(monkeypatch):
    """A Counter of the exact products made from now on, by entry point:
    ``Matrix.__matmul__``, and ``Matrix.times``, the product by I_p (x) x
    (x) I_q."""
    from rbsys.linalg import Matrix

    return count_calls(monkeypatch, Matrix, ["__matmul__", "times"])
