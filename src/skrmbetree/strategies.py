"""Word-update strategies.

Every strategy leaves the written slots holding exactly the new patterns;
they differ only in how many primitives that costs:

``naive``  remove-all then inject-all, no detects.
``dcw``    detect each live bit, flip only differences.
``pw``     reuse surviving skyrmions by shifting them into place; only the
           population difference is injected/removed. Single word only.
``bcw``    the batched compare write: many slots of one track share a single
           out-and-back pass, detecting and flipping in parallel per bit.

The charging rules live on :class:`~skrmbetree.device.Device`; this module
only routes a batch of (word_slot, value, width) writes to them, each value
an int below 2**width.
"""

from __future__ import annotations


def apply_strategy(device, track, writes, strategy: str, parallel: bool) -> None:
    """Route a batch through the configured strategy.

    parallel=True issues the whole batch as one shared pass (config layer
    guarantees strategy is bcw then); otherwise every word is its own
    single-word pass, whatever the strategy: one write_pw call per word
    for pw, one write_words call for the whole batch otherwise.
    """
    if not writes:
        return
    if parallel:
        device.write_batch_bcw(track, writes)
    elif strategy == "pw":
        for slot, value, width in writes:
            device.write_pw(track, slot, value, width)
    else:
        device.write_words(track, writes, strategy)
