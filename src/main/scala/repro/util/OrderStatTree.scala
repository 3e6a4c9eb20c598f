package repro.util

/** Order-statistic AVL multiset of `Long` keys.
  *
  * This is the reproduction of the twin red-black trees `TA`/`TS` used by
  * TBC++ (§ 4.4, Table 2 of the paper). The paper only needs a balanced
  * ordered multiset with rank queries; an AVL tree with subtree sizes gives
  * the identical O(log n) bounds for every operation in Table 2:
  *
  *   - `insert(key)`            — insert one occurrence of `key`
  *   - `erase(key)`             — erase one occurrence of `key`
  *   - `maxKey`                 — the largest key (`TA.back()` in the paper)
  *   - `countLess(x)` etc.      — `count(< x)`, `count(<= x)`, `count(> x)`,
  *                                `count(>= x)` rank queries
  *
  * Duplicate keys are collapsed into a per-node multiplicity counter, so tree
  * height is bounded by the number of distinct keys.
  */
final class OrderStatTree {

  private final class Node(var key: Long) {
    var cnt: Int  = 1      // multiplicity of `key`
    var sz: Int   = 1      // total elements (with duplicates) in this subtree
    var h: Int    = 1      // AVL height
    var l: Node   = null
    var r: Node   = null
  }

  private var root: Node = null

  private def hgt(n: Node): Int = if (n == null) 0 else n.h
  private def siz(n: Node): Int = if (n == null) 0 else n.sz

  private def update(n: Node): Unit = {
    n.h = 1 + math.max(hgt(n.l), hgt(n.r))
    n.sz = n.cnt + siz(n.l) + siz(n.r)
  }

  private def rotR(y: Node): Node = {
    val x = y.l
    y.l = x.r; x.r = y
    update(y); update(x)
    x
  }

  private def rotL(x: Node): Node = {
    val y = x.r
    x.r = y.l; y.l = x
    update(x); update(y)
    y
  }

  private def rebalance(n: Node): Node = {
    update(n)
    val bf = hgt(n.l) - hgt(n.r)
    if (bf > 1) {
      if (hgt(n.l.l) >= hgt(n.l.r)) rotR(n)
      else { n.l = rotL(n.l); rotR(n) }
    } else if (bf < -1) {
      if (hgt(n.r.r) >= hgt(n.r.l)) rotL(n)
      else { n.r = rotR(n.r); rotL(n) }
    } else n
  }

  private def ins(n: Node, key: Long): Node =
    if (n == null) new Node(key)
    else {
      if (key < n.key) n.l = ins(n.l, key)
      else if (key > n.key) n.r = ins(n.r, key)
      else { n.cnt += 1 }
      rebalance(n)
    }

  private def minNode(n: Node): Node = if (n.l == null) n else minNode(n.l)

  /** Remove the whole node holding the subtree minimum (the successor in `del`). */
  private def delMin(n: Node): Node =
    if (n.l == null) n.r
    else { n.l = delMin(n.l); rebalance(n) }

  private def del(n: Node, key: Long): Node =
    if (n == null) n // key absent: no-op (erase() pre-checks presence)
    else {
      if (key < n.key) n.l = del(n.l, key)
      else if (key > n.key) n.r = del(n.r, key)
      else if (n.cnt > 1) n.cnt -= 1
      else {
        if (n.l == null) return n.r
        if (n.r == null) return n.l
        // take over the successor's key and multiplicity, then drop its node
        val s = minNode(n.r)
        n.key = s.key; n.cnt = s.cnt
        n.r = delMin(n.r)
      }
      rebalance(n)
    }

  /** Insert one occurrence of `key`. O(log n). */
  def insert(key: Long): Unit = root = ins(root, key)

  /** Erase one occurrence of `key`; returns false if absent. O(log n). */
  def erase(key: Long): Boolean = {
    if (!contains(key)) false
    else { root = del(root, key); true }
  }

  /** Whether at least one occurrence of `key` is present. O(log n). */
  def contains(key: Long): Boolean = {
    var n = root
    while (n != null) {
      if (key < n.key) n = n.l
      else if (key > n.key) n = n.r
      else return true
    }
    false
  }

  /** Total number of elements, duplicates included. O(1). */
  def size: Int = siz(root)

  def isEmpty: Boolean = root == null
  def nonEmpty: Boolean = root != null

  /** Largest key present (`TA.back()` in the paper). Requires nonEmpty. */
  def maxKey: Long = {
    require(root != null, "maxKey on empty tree")
    var n = root
    while (n.r != null) n = n.r
    n.key
  }

  /** Number of elements with key strictly below `x`. O(log n). */
  def countLess(x: Long): Int = {
    var n = root; var acc = 0
    while (n != null) {
      if (x <= n.key) n = n.l
      else { acc += siz(n.l) + n.cnt; n = n.r }
    }
    acc
  }

  /** Number of elements with key at most `x`. O(log n). */
  def countLessOrEqual(x: Long): Int = {
    var n = root; var acc = 0
    while (n != null) {
      if (x < n.key) n = n.l
      else { acc += siz(n.l) + n.cnt; n = n.r }
    }
    acc
  }

  /** Number of elements with key strictly above `x`. O(log n). */
  def countGreater(x: Long): Int = size - countLessOrEqual(x)

  /** Number of elements with key at least `x`. O(log n). */
  def countGreaterOrEqual(x: Long): Int = size - countLess(x)
}
