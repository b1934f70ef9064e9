/**
 * @file
 * Barnes-Hut quadtree [3]: the O(n log n) approximation of the all-pairs
 * Coulomb repulsion that makes the layout scale to large views
 * (Section 3.3: "we adopt the scalable Barnes-Hut algorithm").
 *
 * build() radix-sorts the points by Morton code and emits the tree as
 * one packed preorder arena in one pass over the sorted codes: each
 * cell holds what the walk reads (barycentre, charge, precomputed box
 * size) plus the index just past its subtree. forceAt() then walks the
 * arena without a stack -- it moves to the next cell to open a cell and
 * jumps past the subtree to accept it. The arena and the sort buffers
 * keep their capacity across rebuilds, so a layout iterating at
 * interactive rates stops allocating after the first few steps.
 */

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "layout/vec2.hh"
#include "support/invariant.hh"
#include "support/strong_id.hh"

namespace viva::layout
{

/** Tag type of the quadtree cell index space. */
struct CellTag
{
};

/**
 * Index of one cell inside a QuadTree's arena. Strongly typed so a cell
 * index can never be mixed up with a NodeId even though both are small
 * integers flowing through the same layout code.
 */
using CellId = support::StrongId<CellTag, std::int32_t>;

/**
 * A quadtree over charged 2-D points. Build once per iteration from the
 * full point set, then query the approximate repulsive field with
 * forceAt().
 */
class QuadTree
{
  public:
    /** One charged input point of build(). */
    struct Body
    {
        Vec2 position;
        double charge = 0.0;
    };

    /** An empty tree; fill it with build(). */
    QuadTree() = default;

    /**
     * One arena cell. A leaf is the cell of one Morton cell's
     * bodies; its barycentre and charge are that merged point's. Its
     * subtree is itself, so its skip is always the next index.
     */
    struct Cell
    {
        Vec2 bary;            ///< charge-weighted centre
        double charge = 0.0;  ///< total charge inside
        double size = 0.0;    ///< longer side of the cell's box
        CellId skip;          ///< first cell after this subtree
        /** Bodies merged into a leaf; 0 marks an internal cell. */
        std::uint32_t bodies : 30 = 0;
        /** The quadrant of its parent's box this cell covers (the
         * Morton digit; 0 for the root). Read only by the audit. */
        std::uint32_t quadrant : 2 = 0;
    };

    /**
     * Rebuild the whole tree from a point set: Morton-sort the bodies
     * (21 bits per axis; a stable radix sort, so equal codes keep body
     * index order), then emit the non-empty cells in preorder, children
     * in quadrant order 3, 2, 1, 0. Bodies outside [lo, hi] are clamped
     * into it; bodies quantized to the same Morton cell merge into one
     * leaf at their charge-weighted centroid.
     */
    void build(Vec2 lo, Vec2 hi, const std::vector<Body> &bodies);

    /**
     * The repulsive field at a position: sum over the bodies' charges
     * q_j of q_j * (p - p_j) / |p - p_j|^3, with cells treated as a
     * single charge at their barycentre when (cell size / distance) <
     * theta. A query at a body's position skips near-coincident charges
     * (distance below a small epsilon) rather than dividing by zero.
     * Allocation-free and safe to call from many threads at once.
     *
     * @param position query point
     * @param theta opening angle; 0 degenerates to the exact sum
     */
    Vec2 forceAt(Vec2 position, double theta) const;

    /** Number of bodies of the last build(). */
    std::size_t pointCount() const { return points; }

    /** Number of tree cells (memory metric). */
    std::size_t cellCount() const { return cells.size(); }

    /** The preorder arena of the last build(). */
    std::span<const Cell> arena() const { return cells; }

    /**
     * The body indices of the last build() in Morton order: bodies that
     * are neighbours here are neighbours in space, so queries issued in
     * this order walk mostly the same cells one after the other.
     */
    std::span<const std::uint32_t> bodyOrder() const { return order; }

    /**
     * Deep structural audit of the arena: skip indices nest, every
     * internal cell's charge and barycentre are consistent with its
     * children, the children's boxes -- recomputed top-down from the
     * root box -- are distinct quadrants of their parent in descending
     * order with matching stored sizes and hold their barycentres,
     * every leaf's point lies inside its box, and the leaves' body
     * counts add up to the bodies built.
     * @return the violated invariants; empty when well-formed
     */
    support::AuditLog auditInvariants() const;

    /**
     * Fault injection for audit tests: scale one cell's cached charge,
     * deliberately breaking mass conservation. Never call outside
     * tests.
     */
    void debugScaleCellCharge(std::size_t cell, double factor);

  private:
    /** Emit the preorder arena from the sorted codes: one pass counts
     * the cells, one more emits them. */
    void emitArena(const std::vector<Body> &bodies);

    std::vector<Cell> cells;  ///< preorder; clear() keeps the capacity
    Vec2 rootLo;
    Vec2 rootHi;
    std::size_t points = 0;

    /** build()'s Morton codes in ascending order, and the index of the
     * body each belongs to; reused across calls. */
    std::vector<std::uint64_t> codes;
    std::vector<std::uint32_t> order;
    /** The radix sort's other half of each pass. */
    std::vector<std::uint64_t> codeScratch;
    std::vector<std::uint32_t> orderScratch;
};

} // namespace viva::layout
