"""KV-cache memory substrate: token-counting pool, prefix cache, accounting."""
