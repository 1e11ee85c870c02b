/**
 * @file
 * Extended-Einsum AST (paper §2.2, §3.1).
 *
 * An Einsum defines (1) the tensors and their ranks, (2) an iteration
 * space (the Cartesian product of all legal index-variable values),
 * and (3) the computation at each point. Supported expression shapes
 * cover everything in the paper (Figures 3, 8, 12 and Table 2):
 *
 *   - products:      Z[m,n] = A[k,m] * B[k,n]      (2..N operands)
 *   - reduction/copy: Z[m,n] = T[k,m,n]
 *   - sums:          P1[v] = R[v] + P0[v], M[v] = NP[v] - MP[v]
 *   - take:          T[k,m,n] = take(A[k,m], B[k,n], 1)
 *   - affine indices: O[q] = I[q+s] * F[s]  (Toeplitz/conv)
 *   - constant indices: E0[k0] = P[0,k0,n1,0] * X[n1,0]  (FFT step)
 *   - whole-tensor copy: P1 = P0
 */
#pragma once

#include <string>
#include <vector>

#include "fibertree/types.hpp"

namespace teaal::einsum
{

/**
 * An index expression in one tensor slot: a sum of index variables
 * plus a constant offset. `q+s` has vars {q, s}; a bare constant has
 * no vars.
 */
struct IndexExpr
{
    std::vector<std::string> vars;
    ft::Coord offset = 0;

    /** True for a single variable with no offset. */
    bool
    isSimpleVar() const
    {
        return vars.size() == 1 && offset == 0;
    }

    /** True for a constant (no variables). */
    bool isConstant() const { return vars.empty(); }

    /** Canonical text, e.g. "q+s" or "q+1" or "0". */
    std::string toString() const;

    bool
    operator==(const IndexExpr& o) const
    {
        return vars == o.vars && offset == o.offset;
    }
};

/** A tensor reference with per-slot index expressions: A[k, m]. */
struct TensorRef
{
    std::string name;
    std::vector<IndexExpr> indices;

    std::string toString() const;

    /** All index variables appearing in this reference. */
    std::vector<std::string> varNames() const;
};

/** The combining operation of one Einsum. */
enum class OpKind
{
    Multiply, ///< product of operands, reduced with +
    Add,      ///< sum of operands (signs per operand)
    Assign,   ///< single operand copy / reduction
    Take      ///< take(a, b, which): intersect, copy one side
};

/** One Einsum in a cascade. */
struct Expression
{
    TensorRef output;
    OpKind kind = OpKind::Assign;
    std::vector<TensorRef> inputs;

    /// Signs for OpKind::Add operands (+1 / -1), parallel to inputs.
    std::vector<int> signs;

    /// For OpKind::Take: which input is copied to the output (0 or 1).
    int takeArg = -1;

    /// The original source text (for diagnostics and Table 2 printing).
    std::string text;

    /**
     * Index variables of the iteration space: output variables first
     * (in output order), then reduction variables in first-appearance
     * order.
     */
    std::vector<std::string> iterationVars() const;

    /** Variables appearing in the output. */
    std::vector<std::string> outputVars() const;

    /** Iteration variables not appearing in the output (reduced). */
    std::vector<std::string> reductionVars() const;

    std::string toString() const;
};

/**
 * The rank name an index variable iterates: upper-cased variable name
 * (paper convention: `A: [K, M]` is indexed as `A[k, m]`).
 */
std::string rankOfVar(const std::string& var);

/** Inverse of rankOfVar. */
std::string varOfRank(const std::string& rank);

/** The rank a partition-derived rank came from: strip trailing digits
 *  (K0 -> K, KM2 -> KM, MK01 -> MK0). */
std::string baseOfDerived(const std::string& rank);

} // namespace teaal::einsum
