"""Fixture: the clean twin — asyncio primitives and executor hand-offs."""

import asyncio


async def handle(loop, cache, key):
    await asyncio.sleep(0.05)
    # the bound method is handed over, not called: legal
    return await loop.run_in_executor(None, cache.get, key)


async def write_back(self, loop, items):
    await loop.run_in_executor(None, self.cache.put_many, items)


def sync_helper(cache, key):
    # nearest enclosing function is sync (executor-bound helper): legal
    return cache.get(key)
