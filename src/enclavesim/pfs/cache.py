"""LRU cache of verified MHT node plaintexts; data blocks are never cached."""

from collections import OrderedDict

DEFAULT_CAPACITY = 256


class BlockCache:
    """Maps MHT node number -> plaintext, bounded, least-recently-used eviction.

    Capacity 0 disables caching entirely. Cache contents never change
    observable results; they only skip repeat decrypt+verify work.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 0:
            raise ValueError("cache capacity must be >= 0")
        self.capacity = capacity
        self._items: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, node_id):
        if node_id in self._items:
            self._items.move_to_end(node_id)
            self.hits += 1
            return self._items[node_id]
        self.misses += 1
        return None

    def put(self, node_id, plaintext) -> None:
        if self.capacity == 0:
            return
        if node_id in self._items:
            self._items.move_to_end(node_id)
        self._items[node_id] = plaintext
        while len(self._items) > self.capacity:
            self._items.popitem(last=False)

    def __len__(self) -> int:
        return len(self._items)
