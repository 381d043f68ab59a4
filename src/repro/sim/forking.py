"""Fork a run into several futures — the proofs' branching, executable.

Lower-bound arguments (Lemma 4, Figure 2) reason about *several
extensions of the same prefix*: the same configuration continued with
different crash patterns or different operations, and indistinguishability
between them.  :func:`fork_kernel` makes that concrete: deep-copy a
kernel at a client-idle configuration and run each copy forward
independently.

The only restriction is that every client must be idle (no in-flight
high-level operation): active client coroutines are Python generators,
which cannot be copied.  Pending low-level operations — the covering
writes the proofs care about — are plain data and fork fine, so the
interesting configurations (end of each Lemma 1 phase) are all forkable.
"""

from __future__ import annotations

import copy

from repro.sim.kernel import Kernel


class ForkError(RuntimeError):
    """The kernel is not in a forkable configuration."""


def assert_forkable(kernel: Kernel) -> None:
    """Raise :class:`ForkError` unless every client is idle."""
    busy = [
        str(client_id)
        for client_id, runtime in kernel.clients.items()
        if runtime.tasks
    ]
    if busy:
        raise ForkError(
            "cannot fork with in-flight high-level operations on clients:"
            f" {', '.join(busy)} (client coroutines are not copyable)"
        )


def fork_kernel(kernel: Kernel) -> Kernel:
    """A deep, independent copy of the kernel's configuration.

    Objects, servers, pending low-level operations, client states,
    listeners (history, trackers) and the scheduler are all copied; the
    fork and the original share nothing mutable and can be run forward
    separately.
    """
    assert_forkable(kernel)
    return copy.deepcopy(kernel)
