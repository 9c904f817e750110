"""Independent answer check for the benchmark's Poisson runs.

Nothing here imports ``repro``: the 5-point Laplacian is assembled with
``scipy.sparse.kron``, the manufactured right-hand side for
``u = sin(pi x) sin(pi y)`` is evaluated directly, and the reference is a
``spsolve``.  A run passes when

1. it converged within its horizon and every task's fragment came back,
   tiling the n*n unknowns exactly once;
2. ``max|x - x*| / max|x*| <= tol``, where ``x*`` is the ``spsolve``
   answer and ``tol = (window + 1) * eps / (1 - rho)`` (derivation in
   README.md), with ``rho`` the spectral radius of the synchronous
   overlapped block-Jacobi sweep, computed here;
3. ``max|x - u| <= pi**4 h**2 / 48 + tol * max|x*|``: the O(h^2)
   discretization bound plus the iteration allowance of check 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: the runtime's stopping rule (EXPERIMENT_CONFIG): relative update below
#: EPS for WINDOW consecutive iterations on every task
EPS = 1e-6
WINDOW = 48


def laplacian(n: int) -> sp.csr_matrix:
    """-Laplace on the n x n interior grid of the unit square, h = 1/(n+1),
    unknowns row-major."""
    h = 1.0 / (n + 1)
    second = sp.diags([2.0 * np.ones(n), -np.ones(n - 1), -np.ones(n - 1)],
                      [0, 1, -1])
    eye = sp.identity(n)
    return ((sp.kron(second, eye) + sp.kron(eye, second)) / (h * h)).tocsr()


def manufactured(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(u, f)`` on the grid for ``u = sin(pi x) sin(pi y)``, ``f = 2 pi^2 u``."""
    xs = np.arange(1, n + 1) / (n + 1)
    u = np.outer(np.sin(np.pi * xs), np.sin(np.pi * xs)).reshape(n * n)
    return u, 2.0 * np.pi ** 2 * u


def strips(n: int, peers: int) -> list[tuple[int, int]]:
    """Owned unknown ranges: whole grid lines, the first ``n % peers``
    strips one line wider."""
    base, extra = divmod(n, peers)
    bounds = np.cumsum([0] + [base + (k < extra) for k in range(peers)]) * n
    return [(int(bounds[k]), int(bounds[k + 1])) for k in range(peers)]


class BlockJacobi:
    """The synchronous overlapped block-Jacobi sweep the runtime iterates
    asynchronously: each strip, extended by ``overlap`` lines per side,
    solves its local system against the current values outside it and
    keeps its owned part."""

    def __init__(self, A: sp.csr_matrix, n: int, peers: int, overlap: int):
        size = n * n
        self.size = size
        self.blocks = []
        for start, end in strips(n, peers):
            lo, hi = max(0, start - overlap * n), min(size, end + overlap * n)
            outside = np.r_[0:lo, hi:size]
            self.blocks.append((start, end, lo, hi,
                                spla.splu(A[lo:hi, lo:hi].tocsc()),
                                outside, A[lo:hi][:, outside].tocsr()))

    def sweep(self, x: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
        """One sweep ``G(x)``; ``b=None`` gives the linear part (error map)."""
        out = np.empty(self.size)
        for start, end, lo, hi, lu, outside, coupling in self.blocks:
            rhs = -(coupling @ x[outside])
            if b is not None:
                rhs += b[lo:hi]
            out[start:end] = lu.solve(rhs)[start - lo:end - lo]
        return out

    def contraction(self) -> float:
        """Spectral radius of the sweep's linear part (ARPACK, pinned
        start vector so the estimate does not depend on call order)."""
        op = spla.LinearOperator((self.size, self.size), matvec=self.sweep,
                                 dtype=float)
        vals = spla.eigs(op, k=1, which="LM", v0=np.ones(self.size),
                         tol=1e-10, return_eigenvectors=False)
        return float(abs(vals[0]))


@dataclass
class Reference:
    """Everything a run of one (n, peers, overlap) problem is checked against."""

    n: int
    peers: int
    x_star: np.ndarray
    u: np.ndarray
    rho: float
    tol: float
    disc_bound: float

    @classmethod
    def build(cls, n: int, peers: int, overlap: int) -> "Reference":
        A = laplacian(n)
        u, f = manufactured(n)
        x_star = spla.spsolve(A.tocsc(), f)
        rho = BlockJacobi(A, n, peers, overlap).contraction()
        h = 1.0 / (n + 1)
        return cls(n=n, peers=peers, x_star=x_star, u=u, rho=rho,
                   tol=(WINDOW + 1) * EPS / (1.0 - rho),
                   disc_bound=math.pi ** 4 * h * h / 48.0)

    def assemble(self, fragments: dict) -> tuple[np.ndarray | None, list[str]]:
        """Stitch ``{task: (offset, values) | None}``; problems as strings."""
        problems = []
        x = np.zeros(self.n * self.n)
        covered = np.zeros(self.n * self.n, dtype=int)
        for task in range(self.peers):
            frag = fragments.get(task)
            if frag is None:
                problems.append(f"fragment of task {task} missing")
                continue
            offset, values = frag
            values = np.asarray(values, dtype=float)
            if offset < 0 or offset + values.size > x.size:
                problems.append(f"fragment of task {task} out of range")
                continue
            x[offset:offset + values.size] = values
            covered[offset:offset + values.size] += 1
        if not problems and not np.all(covered == 1):
            problems.append("fragments do not tile the grid exactly once")
        return (None if problems else x), problems

    def errors(self, x: np.ndarray) -> tuple[float, float]:
        """``(relative error vs spsolve, max-norm error vs u)``."""
        scale = float(np.max(np.abs(self.x_star)))
        return (float(np.max(np.abs(x - self.x_star))) / scale,
                float(np.max(np.abs(x - self.u))))

    def check(self, converged: bool, fragments: dict) -> list[str]:
        """Reasons the run's answer is wrong; empty when it passes."""
        if not converged:
            return ["did not converge within its horizon"]
        x, problems = self.assemble(fragments)
        if problems:
            return problems
        rel, disc = self.errors(x)
        if not rel <= self.tol:
            problems.append(f"error vs spsolve {rel:.3g} > tolerance {self.tol:.3g}")
        allowance = self.disc_bound + self.tol * float(np.max(np.abs(self.x_star)))
        if not disc <= allowance:
            problems.append(f"error vs u {disc:.3g} > O(h^2) bound {allowance:.3g}")
        return problems
