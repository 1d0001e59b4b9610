"""Quorum systems and quorum-based RPC — the stable public facade.

The building blocks from which both the dual-quorum protocol (IQS/OQS)
and the baseline quorum protocols are assembled.  Import from this
package, not its submodules; everything listed in ``__all__`` is a
stable name:

* :class:`QuorumSystem` — a read and a write quorum expression over one
  node list (predicates and sampling), with the expressions built from
  :func:`node`, :func:`any_of`, :func:`all_of` and :func:`choose`;
* :class:`QuorumSpec` — the declarative, serializable shape description
  (``majority:r=2,w=4``, ``grid:3x3``, ...) whose
  :meth:`~QuorumSpec.build` is the single construction path for every
  named shape, with :data:`DEFAULT_IQS_SPEC` / :data:`DEFAULT_OQS_SPEC`
  naming the paper's recommended shapes;
* quorum RPC — :class:`QuorumCall`, :class:`QrpcError`, and the
  :data:`READ` / :data:`WRITE` phase constants.

Availability of a shape (closed forms, exact enumeration) lives in
:mod:`repro.analysis.availability`.
"""

from .._lazy import lazy_exports

lazy_exports(globals(), {
    "system": ("QuorumSystem", "Expr", "node", "any_of", "all_of", "choose"),
    "spec": ("QuorumSpec", "DEFAULT_IQS_SPEC", "DEFAULT_OQS_SPEC"),
    "qrpc": ("QuorumCall", "QrpcError", "READ", "WRITE"),
})
