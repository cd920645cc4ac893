"""What every test of a forked worker checks last: that no child is left."""

import os


def no_child_left() -> bool:
    """True when this process has no child, neither running nor exited and unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
