"""The common storage layer (§III-C).

"All data files are given full paths with prefix flags to activate
different storage plugins": ``/hdfs/a/b`` routes to the HDFS plugin as
``/a/b``, ``/ffs/...`` to Fatman, ``/kv/...`` to the label store, and an
unrecognized prefix falls back to the local filesystem.  Cross-domain
access is mediated by SSO credentials mapped onto each plugin's domain.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import AccessDeniedError, PathError
from repro.security.auth import Credential, SSOAuthority
from repro.sim.netmodel import NodeAddress
from repro.storage.base import StorageSystem


class StorageRouter:
    """Prefix-based plugin routing plus SSO domain enforcement."""

    def __init__(self, authority: Optional[SSOAuthority] = None):
        self._systems: Dict[str, StorageSystem] = {}
        self._default: Optional[StorageSystem] = None
        self._authority = authority

    def register(self, system: StorageSystem, default: bool = False) -> None:
        if not system.scheme:
            raise PathError(f"storage system {system.name!r} declares no scheme")
        if system.scheme in self._systems:
            raise PathError(f"scheme {system.scheme!r} already registered")
        self._systems[system.scheme] = system
        if default:
            self._default = system

    def systems(self) -> List[StorageSystem]:
        return list(self._systems.values())

    def resolve(self, full_path: str) -> Tuple[StorageSystem, str]:
        """Split a full path into (plugin, plugin-internal path).

        An unrecognized prefix activates the local filesystem by default,
        exactly as §III-C specifies.
        """
        if full_path[:1] != "/":
            raise PathError(f"paths must be absolute, got {full_path!r}")
        _, prefix, *rest = full_path.split("/", 2)
        if full_path != "/" and not prefix:
            # "//foo" has an empty scheme segment; silently routing it to
            # the default FS makes a typo'd prefix unreachable forever.
            raise PathError(f"empty scheme segment in {full_path!r}")
        if prefix in self._systems:
            return self._systems[prefix], ("/" + rest[0] if rest else "/")
        if self._default is None:
            raise PathError(f"no plugin for {full_path!r} and no default filesystem")
        return self._default, full_path

    # -- credentialed operations -----------------------------------------

    def _check(self, system: StorageSystem, cred: Optional[Credential], now: float) -> None:
        if self._authority is None:
            return  # router deployed without security (unit tests)
        if cred is None:
            raise AccessDeniedError(f"domain {system.domain!r} requires a credential")
        self._authority.validate(cred, now=now)
        if not cred.allows_domain(system.domain):
            raise AccessDeniedError(
                f"user {cred.user!r} lacks SSO access to domain {system.domain!r}"
            )

    def read(self, full_path: str, cred: Optional[Credential] = None, now: float = 0.0) -> bytes:
        system, inner = self.resolve(full_path)
        self._check(system, cred, now)
        return system.read(inner)

    def write(
        self,
        full_path: str,
        data: bytes,
        cred: Optional[Credential] = None,
        node: Optional[NodeAddress] = None,
        now: float = 0.0,
    ) -> int:
        system, inner = self.resolve(full_path)
        self._check(system, cred, now)
        return system.write(inner, data, node=node)

    def exists(self, full_path: str) -> bool:
        """False only for resolvable-but-missing paths.

        A malformed path (relative, empty scheme segment) raises exactly
        as :meth:`size` and :meth:`locations` do — the three accessors
        agree on what constitutes a routing error.
        """
        system, inner = self.resolve(full_path)
        return system.exists(inner)

    def size(self, full_path: str) -> int:
        system, inner = self.resolve(full_path)
        return system.size(inner)

    def locations(self, full_path: str) -> List[NodeAddress]:
        system, inner = self.resolve(full_path)
        return system.locations(inner)

    def full_path(self, system: StorageSystem, inner: str) -> str:
        """Inverse of :meth:`resolve` for a registered system.

        Always uses the explicit scheme prefix; :meth:`resolve` also
        accepts prefix-less paths via the default-filesystem fallback.
        """
        if not inner.startswith("/"):
            raise PathError(f"inner paths must be absolute, got {inner!r}")
        return f"/{system.scheme}{inner}"
