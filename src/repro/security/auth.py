"""Single-Sign-On authentication (§V-A, simulated).

The production system authenticates offline against an X509 certificate
infrastructure and exposes the result to each storage system through PAM
plugins.  Here an :class:`SSOAuthority` issues signed-ish tokens carrying
the storage *domains* a user may cross; the common storage layer maps
that credential onto every storage plugin, which is exactly the
"mapping their authentication information to running job credential"
behaviour §III-C describes.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import FrozenSet, Iterable

from repro.errors import AccessDeniedError


@dataclass(frozen=True)
class Credential:
    """A validated SSO token: who, which domains, until when."""

    user: str
    domains: FrozenSet[str]
    issued_at: float
    expires_at: float
    token: str

    def allows_domain(self, domain: str) -> bool:
        return domain in self.domains


class SSOAuthority:
    """Issues and validates cross-domain credentials.

    Tokens are HMACs over the credential payload, so a forged credential
    (wrong token for its claims) is rejected — a stand-in for X509
    signature checking.
    """

    def __init__(self, secret: bytes = b"feisu-reproduction-secret"):
        self._secret = secret
        self._revoked: set = set()

    def _sign(self, user: str, domains: FrozenSet[str], issued_at: float, expires_at: float) -> str:
        payload = f"{user}|{','.join(sorted(domains))}|{issued_at}|{expires_at}".encode()
        return hmac.new(self._secret, payload, hashlib.sha256).hexdigest()

    def issue(
        self,
        user: str,
        domains: Iterable[str],
        now: float = 0.0,
        ttl_s: float = 30 * 24 * 3600.0,
    ) -> Credential:
        domains = frozenset(domains)
        expires = now + ttl_s
        token = self._sign(user, domains, now, expires)
        return Credential(user, domains, now, expires, token)

    def validate(self, cred: Credential, now: float = 0.0) -> None:
        """Raise :class:`AccessDeniedError` unless the credential is genuine,
        unexpired and unrevoked."""
        expect = self._sign(cred.user, cred.domains, cred.issued_at, cred.expires_at)
        if not hmac.compare_digest(expect, cred.token):
            raise AccessDeniedError(f"credential for {cred.user!r} failed verification")
        if now > cred.expires_at:
            raise AccessDeniedError(f"credential for {cred.user!r} expired")
        if cred.token in self._revoked:
            raise AccessDeniedError(f"credential for {cred.user!r} was revoked")

    def revoke(self, cred: Credential) -> None:
        self._revoked.add(cred.token)
