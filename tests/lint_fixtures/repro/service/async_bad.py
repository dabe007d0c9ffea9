"""Fixture: blocking calls inside ``async def`` in a service-scoped module."""

import time


async def handle(cache, key):
    time.sleep(0.05)
    return cache.get(key)


async def write_back(self, items):
    self.cache.put_many(items)


async def read_body(path):
    with open(path) as fh:
        return fh.read()
