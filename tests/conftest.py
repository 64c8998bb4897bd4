import itertools
import os


def pytest_configure(config):
    # the `pythonpath` setting reaches only this process; the child
    # processes some tests start (cold CLI calls, import checks) get the
    # same source tree through PYTHONPATH
    src = str(config.rootpath / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )


def del_pezzo_lines(r):
    """The (-1)-curves d*H - sum m_i E_i of P^2 blown up in r <= 7 points,
    c^2 = K.c = -1, as classes of I_{1,r} in the basis (H, E_1, ..., E_r)."""
    lines = []
    for d in range(4):
        for m in itertools.product(range(-1, d + 1), repeat=r):
            if d * d - sum(x * x for x in m) == -1 and 3 * d - sum(m) == 1:
                lines.append([d, *(-x for x in m)])
    return lines
