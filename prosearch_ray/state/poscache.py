"""Cross-actor cache of decoded per-term phrase position cumsums.

Every query actor keeps a local LRU of per-term position cumsums; on a node
running N actors that means N copies of each hot term's array.  This
registry de-duplicates them through the Ray OBJECT STORE: the first actor
to decode a term ``ray.put``s the array and publishes the ref under (index
fingerprint, term); every other actor maps the SAME shared-memory object
zero-copy (``ray.get`` of a numpy array is a read-only view over plasma —
no heap copy, and the store can spill cold entries).

Design notes for multi-node: the registry is a ``num_cpus=0`` named actor
(one per job); object locality is per-node — a remote node's first reader
pays one transfer, after which the object is resident there too.  All
failures degrade silently to local decode (the cache is an optimization,
never a correctness dependency)."""

from __future__ import annotations

from typing import Dict, List, Optional

_ACTOR_NAME = "prosearch-pos-cumsum-registry"
_NAMESPACE = "prosearch_ray"


def enabled() -> bool:
    try:
        import ray
        return ray.is_initialized()
    except Exception:
        return False


_REG = None


def _registry():
    # the handle is cached per process: a named, non-detached actor is
    # reclaimed by Ray as soon as no handle references it, so dropping the
    # handle between calls would silently reset the cache
    global _REG
    if _REG is not None:
        return _REG
    import ray

    @ray.remote(num_cpus=0)
    class _PosCumsumRegistry:
        """Holds {key: [ObjectRef]} — the held refs keep the plasma
        objects alive.  Refs are wrapped in lists so Ray never
        auto-resolves them in transit."""

        def __init__(self):
            self._refs: Dict[str, list] = {}

        def lookup(self, keys: List[str]) -> List[Optional[list]]:
            return [self._refs.get(k) for k in keys]

        def publish(self, key: str, wrapped_ref: list) -> None:
            self._refs.setdefault(key, wrapped_ref)

        def size(self) -> int:
            return len(self._refs)

    _REG = _PosCumsumRegistry.options(
        name=_ACTOR_NAME, namespace=_NAMESPACE,
        get_if_exists=True).remote()
    return _REG


def fetch(keys: List[str]) -> Dict[str, "object"]:
    """Shared arrays for the given keys (missing keys omitted)."""
    import ray

    try:
        reg = _registry()
        wrapped = ray.get(reg.lookup.remote(keys), timeout=5)
        out = {}
        for k, w in zip(keys, wrapped):
            if w:
                out[k] = ray.get(w[0], timeout=5)
        return out
    except Exception:
        return {}


def publish(key: str, arr) -> None:
    """Publish a decoded array; best-effort and FIRE-AND-FORGET: one
    ``ray.put`` plus an un-awaited registry send, so a slow or overloaded
    registry can never stall the caller (the query path publishes on first
    touch of a term).  A racing duplicate publish ships a redundant object
    the registry's ``setdefault`` drops and plasma reclaims."""
    import ray

    try:
        reg = _registry()
        reg.publish.remote(key, [ray.put(arr)])
    except Exception:
        pass
