"""All parameters of the coreset construction in one place.

Algorithm 2 (line 3) fixes, for inputs (k, d, Δ, r, ε, η):

    L  = log₂ Δ
    γ  = 2^{−2(r+10)} · min(η/(kL), ε/((k + d^{1.5r})L))
    ξ  = 2^{−2(r+10)} · min(ε, η) / (k (k + d^{1.5r}) L²)
    λ  = 10⁶ · r · k³ · d · L · ⌈log(kdL)⌉
    T_i(o) = 0.01 · o / (√d · g_i)^r                      (Algorithm 1 line 5)
    φ_i = min(1, 2^{2(r+10)} · λ / (ξ³ γ T_i(o)))          (Algorithm 2 line 8)

plus the FAIL bounds (Σsᵢ ≤ 20000(k + d^{1.5r})L, per-level mass
≤ 10⁴(kL + d^{1.5r})·T_i) and Algorithm 3's estimator parameters
(λ' = 100dL, ψ_i = min(1, 10⁶λ'/T_i), ψ'_i = min(1, 10⁶λ'/(γT_i))).

Those constants are calibrated for union bounds, not laptops: with them the
sampling probabilities are 1 for any realistic input and the "coreset" is the
whole point set.  :meth:`CoresetParams.practical` therefore keeps **every
functional form** — γ, ξ still scale as min(η/kL, ε/(k+d^{1.5r})L) etc.,
φ_i still scales as 1/(γ·T_i(o)) so deeper levels sample at lower rates —
but replaces the absolute constants with calibrated ones.  Experiment E9
ablates this choice; the formula-level behaviour (what E1–E8 measure) is
identical in both regimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.utils.validation import check_delta, check_epsilon_eta, check_k

__all__ = ["CoresetParams"]


@dataclass(frozen=True)
class CoresetParams:
    """Derived parameters of Algorithms 1-4 for one problem instance."""

    k: int
    d: int
    delta: int
    r: float
    eps: float
    eta: float
    #: L = log₂ Δ, the number of grid levels (levels run -1 … L).
    L: int
    #: Heavy-cell threshold coefficient: T_i(o) = threshold_c · o / (√d g_i)^r.
    threshold_c: float
    #: Small-part cutoff γ (parts below γ·T_i(o) are dropped; Lemma 3.4).
    gamma: float
    #: Region-estimation precision ξ (Definition 3.11, Lemma 3.12).
    xi: float
    #: Independence λ of the coreset-sampling hash ĥ_i.
    lam: int
    #: Independence λ' of the size-estimation hashes h_i, h'_i (Algorithm 3).
    lam_est: int
    #: φ_i = min(1, phi_numerator / (γ · T_i(o))).
    phi_numerator: float
    #: FAIL when Σᵢ sᵢ > fail_s_factor · (k + d^{1.5r}) · L.
    fail_s_factor: float
    #: FAIL when τ(∪ⱼ Q_{i,j}) > fail_level_factor · (kL + d^{1.5r}) · T_i(o).
    fail_level_factor: float
    #: ψ_i = min(1, est_psi_numerator·λ'/T_i(o)) and
    #: ψ'_i = min(1, est_psi_numerator·λ'/(γ·T_i(o)))  (Algorithm 3 rates).
    est_psi_numerator: float
    #: Capacity factor for the Storing sketches' cell budget α (Algorithm 4).
    storing_alpha_factor: float = 8.0
    #: Capacity factor for the Storing sketches' per-cell point budget β̂.
    storing_beta_factor: float = 2.0
    #: "theory" (paper constants) or "practical" (calibrated constants).
    mode: str = "practical"

    # ------------------------------------------------------------------ ctor
    @staticmethod
    def _base(k: int, d: int, delta: int, r: float, eps: float, eta: float):
        k = check_k(k)
        delta = check_delta(delta)
        eps, eta = check_epsilon_eta(eps, eta)
        L = int(math.log2(delta))
        if L < 1:
            raise ValueError("delta must be >= 2")
        return k, int(d), delta, float(r), eps, eta, L

    @classmethod
    def from_theory(cls, k: int, d: int, delta: int, r: float = 2.0,
                    eps: float = 0.25, eta: float = 0.25) -> "CoresetParams":
        """The paper's exact constants (Algorithm 2 line 3, Algorithm 3)."""
        k, d, delta, r, eps, eta, L = cls._base(k, d, delta, r, eps, eta)
        dd = d ** (1.5 * r)
        scale = 2.0 ** (-2 * (r + 10))
        gamma = scale * min(eta / (k * L), eps / ((k + dd) * L))
        xi = scale * min(eps, eta) / (k * (k + dd) * L**2)
        lam = int(1e6 * r * k**3 * d * L * math.ceil(math.log(max(k * d * L, 2))))
        # Algorithm 2 line 8: φ_i = min(1, 2^{2(r+10)}·λ/(ξ³·γ·T_i(o)));
        # phi() divides by γ·T_i, so the numerator is 2^{2(r+10)}·λ/ξ³.
        phi_numerator = (2.0 ** (2 * (r + 10))) * lam / (xi**3)
        return cls(
            k=k, d=d, delta=delta, r=r, eps=eps, eta=eta, L=L,
            threshold_c=0.01, gamma=gamma, xi=xi, lam=lam,
            lam_est=100 * d * L,
            phi_numerator=phi_numerator,
            fail_s_factor=20000.0, fail_level_factor=10000.0,
            est_psi_numerator=1e6,
            storing_alpha_factor=1e6, storing_beta_factor=4e6,
            mode="theory",
        )

    @classmethod
    def practical(cls, k: int, d: int, delta: int, r: float = 2.0,
                  eps: float = 0.25, eta: float = 0.25,
                  samples_per_part: float = 32.0) -> "CoresetParams":
        """Same functional forms, calibrated absolute constants.

        ``samples_per_part`` is the expected number of samples drawn from a
        part of the minimum retained size γ·T_i(o) at ε=η=0.25 (larger parts
        get proportionally more, as in the paper: the rate φ_i is flat per
        level, so a part of size m yields m/(γT_i)·samples_per_part samples).
        Tighter ε/η raise the rate quadratically and lower the small-part
        cutoff linearly — the practical analogue of the theory's poly(1/ε)
        coreset-size growth.
        """
        k, d, delta, r, eps, eta, L = cls._base(k, d, delta, r, eps, eta)
        dd = d ** (1.5 * r)
        acc = min(eps, eta)
        # Same functional form as the theory value, but floored: a cutoff far
        # below ~20%·(ε/0.25) of T_i buys no practical accuracy and inflates
        # the per-level sampling rate 1/(γT_i) (E9 ablates this floor).
        gamma = min(0.25, max(0.8 * acc, 4.0 * min(eta / (k * L), eps / ((k + dd) * L))))
        xi = 0.25 * acc / (k * (k + dd) * L**2)
        lam = max(8, int(2 * k * math.ceil(math.log2(max(k * d * L, 2)))))
        return cls(
            k=k, d=d, delta=delta, r=r, eps=eps, eta=eta, L=L,
            # threshold_c = 2 (paper: 0.01): a cell is heavy when collapsing
            # it would cost ≥ 2o.  A larger coefficient coarsens the crucial
            # level, which raises T_i there and is what gives the sampling
            # rate φ_i = phi_numerator/(γT_i) its compression (E9 ablates).
            threshold_c=2.0, gamma=gamma, xi=xi, lam=lam,
            lam_est=max(8, 2 * int(math.ceil(math.log2(max(d * L, 2))))),
            phi_numerator=float(samples_per_part) * (0.25 / acc) ** 2,
            # Calibrated FAIL bounds: the theory constants (20000 / 10000)
            # never fire at laptop scale, which would let the guess driver
            # accept an o far below OPT and destroy compression.  The forms
            # (·(k+d^{1.5r})L and ·(kL+d^{1.5r})T_i) are the paper's.
            fail_s_factor=8.0, fail_level_factor=4.0,
            est_psi_numerator=50.0, mode="practical",
        )

    def with_overrides(self, **kwargs) -> "CoresetParams":
        """Copy with selected fields replaced (for ablation experiments)."""
        return replace(self, **kwargs)

    # --------------------------------------------------------------- formulas
    @property
    def d_pow(self) -> float:
        """d^{1.5r}, the dimension term in every count bound."""
        return self.d ** (1.5 * self.r)

    def grid_side(self, level: int) -> float:
        """g_i = Δ / 2^i."""
        return float(self.delta) / (2.0**level)

    def threshold(self, level: int, o: float) -> float:
        """T_i(o) = threshold_c · o / (√d · g_i)^r (Algorithm 1 line 5)."""
        g = self.grid_side(level)
        return self.threshold_c * o / ((math.sqrt(self.d) * g) ** self.r)

    def phi(self, level: int, o: float) -> float:
        """Sampling probability φ_i (Algorithm 2 line 8)."""
        return min(1.0, self.phi_numerator / (self.gamma * self.threshold(level, o)))

    def psi(self, level: int, o: float) -> float:
        """Cell-count estimation rate ψ_i (Algorithm 3 step 2)."""
        return min(1.0, self.est_psi_numerator * self.lam_est / self.threshold(level, o))

    def psi_part(self, level: int, o: float) -> float:
        """Part-size estimation rate ψ'_i (Algorithm 3 step 4)."""
        return min(
            1.0,
            self.est_psi_numerator * self.lam_est / (self.gamma * self.threshold(level, o)),
        )

    def small_part_cutoff(self, level: int, o: float) -> float:
        """γ·T_i(o): parts below this estimated size are dropped (Alg. 2 line 9)."""
        return self.gamma * self.threshold(level, o)

    def max_heavy_cells(self) -> float:
        """FAIL bound on Σᵢ sᵢ (Algorithm 2 line 5)."""
        return self.fail_s_factor * (self.k + self.d_pow) * self.L

    def max_level_mass(self, level: int, o: float) -> float:
        """FAIL bound on τ(∪ⱼ Q_{i,j}) (Algorithm 2 line 6)."""
        return self.fail_level_factor * (self.k * self.L + self.d_pow) * self.threshold(level, o)

    # ----------------------------------------------------- sketch capacities
    def storing_alpha(self, level: int, o: float, rate: float) -> int:
        """Cell budget α of the Storing sketch for a substream sampled at
        ``rate`` (Algorithm 4 step 3: α_i = 10⁶(k + d^{1.5r}·rate·T_i)L²).

        The practical form drops the worst-case packing constants but keeps
        the structure: a term for center cells (∝ kL) plus a term for the
        sampled light-cell mass (∝ rate·T_i·d-dependence).
        """
        t = self.threshold(level, o)
        if self.mode == "theory":
            val = self.storing_alpha_factor * (self.k + self.d_pow * rate * t) * self.L**2
        else:
            val = self.storing_alpha_factor * (self.k * self.L + self.d_pow + rate * t)
        return max(8, int(math.ceil(val)))

    def storing_beta(self, level: int, o: float) -> int:
        """Per-cell point budget β̂ of the coreset-sample substream
        (Algorithm 4 step 3: β̂_i = 4·10⁶(k + d^{1.5r})L²·φ_i·T_i)."""
        t = self.threshold(level, o)
        phi = self.phi(level, o)
        if self.mode == "theory":
            val = self.storing_beta_factor * (self.k + self.d_pow) * self.L**2 * phi * t
        else:
            val = self.storing_beta_factor * max(self.k, phi * t)
        return max(8, int(math.ceil(val)))

    # ------------------------------------------------------------ guess range
    def guess_upper_bound(self, n: int) -> float:
        """n · (√d · Δ)^r — the top of the o-enumeration (Theorem 3.19)."""
        return float(n) * (math.sqrt(self.d) * self.delta) ** self.r

    def guesses(self, n: int):
        """The geometric guess schedule o ∈ {1, 2, 4, …} (Theorem 3.19)."""
        top = self.guess_upper_bound(max(int(n), 1))
        o = 1.0
        while o <= top:
            yield o
            o *= 2.0
        yield o  # one guess above the bound so OPT itself is always covered
