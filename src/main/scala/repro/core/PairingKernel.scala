package repro.core

import scala.collection.mutable

import repro.flavor.FlavorUniverse

/** Food pairing scores on the Spark driver, over the dense overlap matrix
  * (Methodology IV.B–C). It computes the quantities of
  * [[FoodPairing.cuisineScores]] and [[Contribution.chi]], which stay as
  * the DataFrame reference that the tests compare it with.
  *
  * A cuisine is its recipes in recipe-id order, each recipe the distinct
  * ingredient ids it uses (see [[PairingKernel.recipes]]). One pass over a
  * recipe R of n ingredients gives S = Σ_{i<j∈R} w_ij and, per member i,
  * d_i = Σ_{j∈R, j≠i} w_ij, where w_ij = |F_i ∩ F_j|. Then
  * {{{
  *   N_s^R     = 2S / (n(n−1))
  *   N_s^{R∖i} = 2(S − d_i) / ((n−1)(n−2))      (n ≥ 3; an n = 2 recipe drops out)
  * }}}
  * with the same expressions as the DataFrame path, so per-recipe values
  * are identical and cuisine values differ only in summation order.
  *
  * @param overlap row-major `size × size` matrix of |F_a ∩ F_b|
  */
final class PairingKernel(overlap: Array[Int], size: Int) {
  import PairingKernel._

  require(overlap.length == size.toLong * size, s"overlap holds ${overlap.length} cells, not $size²")

  /** Calls `f(recipe, S, d)` for every recipe of at least 2 ingredients;
    * `d(k)` is the sum for `recipe(k)`, and the array is reused.
    */
  private def foreachScored(recipes: Array[Array[Int]])(f: (Array[Int], Long, Array[Long]) => Unit): Unit = {
    val d = new Array[Long](recipes.foldLeft(0)(_ max _.length))
    for (r <- recipes if r.length >= 2) {
      java.util.Arrays.fill(d, 0L)
      var s = 0L
      var a = 0
      while (a < r.length) {
        val row = r(a) * size
        var b = a + 1
        while (b < r.length) {
          val w = overlap(row + r(b))
          s += w; d(a) += w; d(b) += w
          b += 1
        }
        a += 1
      }
      f(r, s, d)
    }
  }

  /** N_s^C, the population σ of N_s^R and the number of scored recipes;
    * None when no recipe has 2 ingredients.
    */
  def cuisine(recipes: Array[Array[Int]]): Option[CuisineScore] = {
    val scores = mutable.ArrayBuilder.make[Double]
    foreachScored(recipes) { (r, s, _) => scores += score(r.length, s) }
    val xs = scores.result()
    Option.when(xs.nonEmpty) {
      val mean = xs.sum / xs.length
      CuisineScore(mean, math.sqrt(xs.map(x => (x - mean) * (x - mean)).sum / xs.length), xs.length)
    }
  }

  /** χ for every ingredient of a scored recipe, by ingredient id. */
  def chi(recipes: Array[Array[Int]]): Vector[Chi] = {
    val removed, adjusted = new Array[Double](size)
    val dropped, freq = new Array[Long](size)
    var total = 0.0
    var scored = 0L
    foreachScored(recipes) { (r, s, d) =>
      val n = r.length
      val sc = score(n, s)
      total += sc; scored += 1
      for (k <- r.indices) {
        val i = r(k)
        removed(i) += sc; freq(i) += 1
        if (n == 2) dropped(i) += 1
        else adjusted(i) += 2.0 * (s - d(k)) / ((n - 1) * (n - 2))
      }
    }
    val ns = total / scored
    (0 until size).filter(freq(_) > 0).map { i =>
      val kept = scored - dropped(i)
      val nsWithout = Option.when(kept > 0)((total - removed(i) + adjusted(i)) / kept)
      Chi(i, nsWithout.filter(_ => ns != 0).map(w => 100.0 * (w - ns) / ns), nsWithout, freq(i))
    }.toVector
  }
}

object PairingKernel {

  /** N_s^C (`ns`), the population σ of N_s^R and the scored-recipe count. */
  final case class CuisineScore(ns: Double, sigma: Double, nRecipes: Long)

  /** χ_i of [[Contribution.chi]]: `nsWithout` is None when no recipe keeps
    * 2 ingredients, `chi` also when N_s is 0; `freq` counts the scored
    * recipes that use the ingredient.
    */
  final case class Chi(ingId: Int, chi: Option[Double], nsWithout: Option[Double], freq: Long)

  def apply(universe: FlavorUniverse): PairingKernel = new PairingKernel(universe.overlap, universe.size)

  /** One cuisine's (region, recipe_id, ing_id) rows as kernel input:
    * recipes in recipe-id order, each its distinct ingredient ids, sorted.
    */
  def recipes(rows: Iterable[(String, Long, Int)]): Array[Array[Int]] =
    rows.groupBy(_._2).toArray.sortBy(_._1).map(_._2.map(_._3).toArray.distinct.sorted)

  private def score(n: Int, s: Long): Double = 2.0 * s / (n * (n - 1))
}
