"""A tree query as one store call per key read: the per-read reference.

`BeTree.query` hands each node's key reads to the store as one
`scan_keys` pass. This replays the same search the long way, one
`read_key` per key read and the tree's own keys to steer by, so a test can
hold the one-pass query to exactly what the reads cost one by one.
"""

from skrmbetree.layout import KIND_INTERNAL


def reference_query(tree, key: int):
    """The value `tree.query(key)` returns, read one key at a time."""
    store = tree.store
    node = tree.nodes[tree.root_id]
    while node.kind == KIND_INTERNAL:
        nid = node.node_id
        # the buffer newest first: the first hit is the live version
        for m in sorted(node.buffer, key=lambda m: -m.seq):
            if store.read_key(nid, m.slot, expect=m.key) == key:
                payload = store.read_payload(nid, m.slot, tree.payload_width,
                                             expect=m.payload)
                if tree.arena is None:
                    return payload
                return store.arena_read(payload, tree.word_bits,
                                        expect=tree.arena.values[payload])
        lo, hi = 0, len(node.pivots)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if store.read_key(nid, mid, expect=node.pivots[mid][0]) <= key:
                lo = mid
            else:
                hi = mid
        node = tree.nodes[store.read_payload(nid, lo, tree.word_bits,
                                             expect=node.pivots[lo][1])]
    lo, hi = 0, len(node.elements)
    while lo < hi:
        mid = (lo + hi) // 2
        got = store.read_key(node.node_id, mid, expect=node.elements[mid][0])
        if got == key:
            return store.read_payload(node.node_id, mid, tree.word_bits,
                                      expect=node.elements[mid][1])
        if got < key:
            lo = mid + 1
        else:
            hi = mid
    return None
