import os


def pytest_configure(config):
    # the `pythonpath` setting reaches only this process; the child
    # processes some tests start (cold CLI calls, import checks) get the
    # same source tree through PYTHONPATH
    src = str(config.rootpath / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
