"""Word-update strategies.

Every strategy leaves the written slots holding exactly the new patterns;
they differ only in how many primitives that costs:

``naive``  remove-all then inject-all, no detects.
``dcw``    detect each live bit, flip only differences.
``pw``     reuse surviving skyrmions by shifting them into place; only the
           population difference is injected/removed, word by word.
``bcw``    the batched compare write: many slots of one track share a single
           out-and-back pass, detecting and flipping in parallel per bit.

The charging rules and the one word-mapping write loop live on
:class:`~skrmbetree.device.Device`; this module only routes a batch of
(word_slot, value, width) writes, each value an int below 2**width, to the
serial passes of ``Device.write_words`` or to the shared bcw pass of
``Device.write_batch_bcw``. ``DeviceStore`` makes the same routing itself,
so no simulation calls this module; the tests and the tracer still do.
"""

from __future__ import annotations


def apply_strategy(device, track, writes, strategy: str, parallel: bool) -> None:
    """Route a batch through the configured strategy.

    parallel=True with bcw issues the whole batch as one shared pass;
    otherwise one write_words call writes every word as its own pass in the
    strategy's mode, and the device refuses a parallel write in any mode
    but bcw.
    """
    if parallel and strategy == "bcw":
        device.write_batch_bcw(track, writes)
    else:
        device.write_words(track, writes, strategy, parallel)
