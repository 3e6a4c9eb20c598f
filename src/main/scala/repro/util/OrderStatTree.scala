package repro.util

/** Order-statistic B+-tree multiset of `Long` keys: the twin red-black
  * trees `TA`/`TS` of TBC++ (§ 4.4, Table 2 of the paper). A red-black tree
  * is a B-tree of order 4 (Guibas & Sedgewick, FOCS 1978), so a B+-tree of
  * fixed fanout `F` keeps its O(log n) bound for every operation of Table 2:
  * `insert`, `erase`, `maxKey` (`TA.back()`) and the rank queries
  * `countLess(x)` etc. With `withValues` a key carries a `Long` that
  * [[popMax]] returns: TBC++'s `TA` carries each wedge's start time.
  *
  * Nodes are primitive arrays, duplicates separate entries: the leaves in
  * order are the sorted multiset. An inner node keeps each child's key count
  * in `sizes` and a lower bound in `keys`: `keys(i)` <= every key under
  * `kids(i)` <= `keys(i + 1)`. No node exists before the first insert; the
  * first leaf grows from 4 slots. Sizes are `Int`: TBC++ keeps one tree per
  * list of one cross, fewer than 2^31 wedges.
  *
  * Height: a full node splits into halves of F/2 entries, and nodes are
  * never merged (an erase only shrinks its leaf; a drained tree starts
  * over). A half takes F/2 more inserts below it to split again, so h levels
  * take (F/2)^(h-1) inserts since the tree was last empty: at most 8 levels
  * below 2^31. An operation walks at most two root-to-leaf paths.
  */
final class OrderStatTree(withValues: Boolean = false) {
  import OrderStatTree.{F, rank}

  /** A leaf if `kids` is null; `n` keys or children; `vals` only in leaves `withValues`. */
  private final class Node(
      var keys: Array[Long], var vals: Array[Long], val kids: Array[Node], val sizes: Array[Int]) { var n = 0 }

  private var root: Node = null
  private var total = 0

  /** Split the full child `j` of `nd`, which has room for one more. */
  private def splitKid(nd: Node, j: Int): Unit = {
    import java.util.Arrays.copyOfRange
    val kid = nd.kids(j); val m = F / 2; val e = m + F
    val keys = copyOfRange(kid.keys, m, e)
    val half =
      if (kid.kids != null) new Node(keys, null, copyOfRange(kid.kids, m, e), copyOfRange(kid.sizes, m, e))
      else new Node(keys, if (withValues) copyOfRange(kid.vals, m, e) else null, null, null)
    kid.n = m; half.n = m
    val k = nd.n - j - 1
    System.arraycopy(nd.keys, j + 1, nd.keys, j + 2, k)
    System.arraycopy(nd.kids, j + 1, nd.kids, j + 2, k)
    System.arraycopy(nd.sizes, j + 1, nd.sizes, j + 2, k)
    nd.keys(j + 1) = keys(0); nd.kids(j + 1) = half
    nd.sizes(j + 1) = if (half.kids == null) m else half.sizes.take(m).sum
    nd.sizes(j) -= nd.sizes(j + 1)
    nd.n += 1
  }

  /** Erase one `key` below `nd`: where [[insert]] would put it when `r < 0`,
    * else the key of rank `r`. False, changing nothing, if that is no `key`.
    */
  private def del(nd: Node, key: Long, r: Int): Boolean =
    if (nd.kids == null) {
      val p = if (r < 0) rank(nd.keys, 0, nd.n, key, inclusive = true) - 1 else r
      p >= 0 && nd.keys(p) == key && {
        nd.n -= 1
        System.arraycopy(nd.keys, p + 1, nd.keys, p, nd.n - p)
        if (withValues) System.arraycopy(nd.vals, p + 1, nd.vals, p, nd.n - p)
        true
      }
    } else {
      var j = 0; var q = r
      if (r < 0) j = rank(nd.keys, 1, nd.n, key, inclusive = true) - 1
      else while (q >= nd.sizes(j)) { q -= nd.sizes(j); j += 1 }
      del(nd.kids(j), key, q) && { nd.sizes(j) -= 1; true }
    }

  /** Number of keys below `x`, or at most `x` when `inclusive`. */
  private def countBelow(x: Long, inclusive: Boolean): Int = {
    if (root == null) return 0
    var nd = root; var acc = 0
    while (nd.kids != null) {
      val j = rank(nd.keys, 1, nd.n, x, inclusive) - 1
      var i = 0
      while (i < j) { acc += nd.sizes(i); i += 1 }
      nd = nd.kids(j)
    }
    acc + rank(nd.keys, 0, nd.n, x, inclusive)
  }

  /** The last leaf holding a key; with `pop`, counting one key fewer on the way. */
  private def lastLeaf(pop: Boolean): Node = {
    var nd = root
    while (nd.kids != null) {
      var j = nd.n - 1
      while (nd.sizes(j) == 0) j -= 1
      if (pop) nd.sizes(j) -= 1
      nd = nd.kids(j)
    }
    nd
  }

  private def dropOne(): Unit = { total -= 1; if (total == 0 && root.kids != null) root = null }

  /** Insert one occurrence of `key`. O(log n). */
  def insert(key: Long): Unit = insert(key, 0L)

  /** Insert one occurrence of `key`, carrying `value` if `withValues`. O(log n):
    * full nodes on the way down split first, so the leaf reached has room.
    */
  def insert(key: Long, value: Long): Unit = {
    if (root == null) root = new Node(new Array(4), if (withValues) new Array(4) else null, null, null)
    if (root.n == F) {
      val r = new Node(new Array[Long](F), null, new Array[Node](F), new Array[Int](F))
      r.kids(0) = root; r.sizes(0) = total; r.n = 1
      root = r
    }
    var nd = root
    while (nd.kids != null) {
      var j = rank(nd.keys, 1, nd.n, key, inclusive = true) - 1
      if (nd.kids(j).n == F) { splitKid(nd, j); if (key >= nd.keys(j + 1)) j += 1 }
      nd.sizes(j) += 1
      nd = nd.kids(j)
    }
    if (nd.n == nd.keys.length) { // the first leaf, still growing
      nd.keys = java.util.Arrays.copyOf(nd.keys, 2 * nd.n)
      if (withValues) nd.vals = java.util.Arrays.copyOf(nd.vals, 2 * nd.n)
    }
    val a = nd.keys; val b = nd.vals; var i = nd.n
    while (i > 0 && a(i - 1) > key) { a(i) = a(i - 1); if (b != null) b(i) = b(i - 1); i -= 1 }
    a(i) = key; if (b != null) b(i) = value
    nd.n += 1
    total += 1
  }

  /** Erase one occurrence of `key`; returns false if absent. O(log n). If the leaf
    * the separators lead to lost its copies, the key of rank `countLess(key)` is one.
    */
  def erase(key: Long): Boolean = {
    val found = root != null && (del(root, key, -1) || {
      val r = countBelow(key, inclusive = false)
      r < total && del(root, key, r)
    })
    if (found) dropOne()
    found
  }

  /** Erase one largest key and return its value. Requires nonEmpty, `withValues`. O(log n). */
  def popMax(): Long = {
    require(total > 0 && withValues, "popMax needs a non-empty tree with values")
    val leaf = lastLeaf(pop = true)
    leaf.n -= 1
    dropOne()
    leaf.vals(leaf.n)
  }

  /** Whether at least one occurrence of `key` is present. O(log n). */
  def contains(key: Long): Boolean = countLessOrEqual(key) > countLess(key)

  /** Total number of elements, duplicates included. O(1). */
  def size: Int = total

  def isEmpty: Boolean = total == 0
  def nonEmpty: Boolean = total != 0

  /** Largest key present (`TA.back()` in the paper). Requires nonEmpty. O(log n). */
  def maxKey: Long = {
    require(total > 0, "maxKey on empty tree")
    val leaf = lastLeaf(pop = false)
    leaf.keys(leaf.n - 1)
  }

  /** Number of elements with key strictly below `x`. O(log n). */
  def countLess(x: Long): Int = countBelow(x, inclusive = false)

  /** Number of elements with key at most `x`. O(log n). */
  def countLessOrEqual(x: Long): Int = countBelow(x, inclusive = true)

  /** Number of elements with key strictly above `x`. O(log n). */
  def countGreater(x: Long): Int = size - countLessOrEqual(x)

  /** Number of elements with key at least `x`. O(log n). */
  def countGreaterOrEqual(x: Long): Int = size - countLess(x)
}

object OrderStatTree {
  private final val F = 32

  /** The index in `[from, to]` past every key of ascending `a(from until to)` below `x` (at
    * most `x` if `inclusive`), scanning from the right, where TBC++ pops and appends.
    */
  private def rank(a: Array[Long], from: Int, to: Int, x: Long, inclusive: Boolean): Int = {
    var i = to
    if (inclusive) while (i > from && a(i - 1) > x) i -= 1
    else while (i > from && a(i - 1) >= x) i -= 1
    i
  }
}
