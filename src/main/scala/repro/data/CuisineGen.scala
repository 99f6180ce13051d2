package repro.data

import scala.collection.mutable
import scala.concurrent.{Await, Future}
import scala.concurrent.duration.Duration
import scala.util.Random

import repro.flavor.FlavorUniverse

/** One ground-truth recipe of the synthetic CulinaryDB corpus. */
final case class RecipeRow(region: String, recipeId: Long, ingredientIds: Vector[Int])

/** Deterministic synthetic CulinaryDB corpus generator.
  *
  * Per region it reproduces, exactly, the paper's Table-1 recipe count and
  * unique mapped-ingredient count, and plants the structural patterns the
  * analysis pipeline must recover:
  *
  *  - recipe sizes `2 + Binomial(20, 0.35)` → thin-tailed, mean ≈ 9 (Fig 3a);
  *  - Zipf-like ingredient popularity `w(rank) = rank^-0.9` (Fig 3b);
  *  - popularity ranks ordered by an affinity score
  *    `γ·coreness + ln(categoryEmphasis) + Gumbel noise`, so positive-Z
  *    regions put core-flavored (high-overlap) ingredients on top and
  *    negative-Z regions put idiosyncratic ones on top (Fig 4), while
  *    emphasised categories dominate popular slots (Fig 2);
  *  - a mild within-recipe flavor tilt `exp(β · meanOverlapWithChosen)`,
  *    β = ±0.04·γ, so real cuisines deviate slightly from their own
  *    frequency-preserved null (the paper's "to a large extent").
  *
  * After sampling, any pool ingredient that never appeared is injected into
  * a recipe (replacing an ingredient that occurs elsewhere), making the
  * unique-ingredient count exact without disturbing totals.
  */
object CuisineGen {

  /** Zipf exponent for popularity weights. */
  val ZipfAlpha = 0.9

  /** Recipe size = 2 + Binomial(SizeTrials, SizeP): mean 9, max 22. */
  val SizeTrials = 20
  val SizeP      = 0.35

  /** Scaled recipe count for a region (exact at scale 1). */
  def scaledRecipes(spec: RegionSpec, scale: Double): Int =
    if (scale >= 1.0) spec.recipes
    else math.max(30, math.round(spec.recipes * scale).toInt)

  /** Scaled pool size (exact at scale 1); kept well under the number of
    * ingredient slots so exact-coverage injection always succeeds.
    */
  def scaledPool(spec: RegionSpec, scale: Double): Int =
    if (scale >= 1.0) spec.ingredients
    else math.max(30, math.min(spec.ingredients,
      math.min(math.round(spec.ingredients * math.min(1.0, 4 * scale)).toInt,
               scaledRecipes(spec, scale) * 4)))

  /** Generate every region's recipes (including the UNREG pool), in
    * [[Regions.generated]] order. Each region is seeded on its own, so the
    * regions are generated concurrently on the global execution context,
    * one thread per core, with the result of generating them one by one.
    *
    * @param scale 1.0 reproduces Table 1 exactly; smaller values shrink
    *              recipe counts and pools proportionally for fast tests.
    */
  def generate(u: FlavorUniverse, scale: Double = 1.0, seed: Long = 7L): Vector[RecipeRow] = {
    import scala.concurrent.ExecutionContext.Implicits.global
    Regions.generated.map(spec => Future(generateRegion(u, spec, scale, seed)))
      .flatMap(Await.result(_, Duration.Inf))
  }

  /** Generate one region deterministically (independent of other regions). */
  def generateRegion(u: FlavorUniverse, spec: RegionSpec, scale: Double = 1.0,
                     seed: Long = 7L): Vector[RecipeRow] = {
    val rng = new Random(seed * 1000003L + spec.code.hashCode)
    val nRecipes = scaledRecipes(spec, scale)
    val poolSize = scaledPool(spec, scale)

    val pool  = selectPool(u, spec, poolSize, rng)
    val ranked = rankByAffinity(u, spec, pool, rng)
    val popW  = Array.tabulate(ranked.length)(r => math.pow(r + 1.0, -ZipfAlpha))
    val beta  = 0.04 * spec.zSign * spec.strength

    val n = ranked.length
    val regionIdx = Regions.generated.indexWhere(_.code == spec.code)
    val baseId = regionIdx.toLong * 1000000L

    val recipes = Array.ofDim[mutable.ArrayBuffer[Int]](nRecipes)
    val overlapSum = new Array[Double](n) // Σ shared(cand, chosen) per candidate
    val inRecipe   = new Array[Boolean](n)
    val weights    = new Array[Double](n)

    var r = 0
    while (r < nRecipes) {
      val size = math.min(2 + binomial(rng, SizeTrials, SizeP), n)
      val chosen = mutable.ArrayBuffer.empty[Int] // local indices into `ranked`
      java.util.Arrays.fill(overlapSum, 0.0)
      java.util.Arrays.fill(inRecipe, false)
      while (chosen.length < size) {
        var total = 0.0
        var i = 0
        val k = chosen.length
        while (i < n) {
          if (inRecipe(i)) weights(i) = 0.0
          else {
            val tilt = if (k == 0 || beta == 0.0) 1.0
                       else math.exp(math.max(-8.0, math.min(8.0, beta * overlapSum(i) / k)))
            weights(i) = popW(i) * tilt
          }
          total += weights(i)
          i += 1
        }
        var t = rng.nextDouble() * total
        var pick = -1
        i = 0
        while (i < n && pick < 0) {
          t -= weights(i)
          if (t <= 0) pick = i
          i += 1
        }
        if (pick < 0) pick = n - 1
        inRecipe(pick) = true
        chosen += pick
        // Incrementally maintain Σ overlap with the chosen set.
        val pickedId = ranked(pick)
        i = 0
        while (i < n) {
          if (!inRecipe(i)) overlapSum(i) += u.sharedCount(ranked(i), pickedId)
          i += 1
        }
      }
      recipes(r) = chosen.map(ranked(_))
      r += 1
    }

    injectMissing(recipes, ranked, rng)

    recipes.zipWithIndex.map { case (ings, idx) =>
      RecipeRow(spec.code, baseId + idx, ings.toVector)
    }.toVector
  }

  /** Weighted sample (without replacement) of the region's ingredient pool
    * from the global universe; emphasised categories are over-represented.
    */
  private def selectPool(u: FlavorUniverse, spec: RegionSpec, poolSize: Int,
                         rng: Random): Vector[Int] = {
    val weighted = u.ingredients.map { ing =>
      val w = spec.emphasis.getOrElse(ing.category, 1.0)
      // Gumbel-max trick: sampling w/o replacement ∝ weight.
      (ing.id, math.log(w) - math.log(-math.log(rng.nextDouble() + 1e-300)))
    }
    weighted.sortBy(-_._2).take(poolSize).map(_._1)
  }

  /** Order the pool by planted affinity: popular ranks go to core-flavored
    * ingredients in positive regions, idiosyncratic ones in negative
    * regions, with emphasised categories boosted and Gumbel noise added.
    */
  private def rankByAffinity(u: FlavorUniverse, spec: RegionSpec, pool: Vector[Int],
                             rng: Random): Array[Int] = {
    val gamma = spec.zSign * spec.strength
    pool.map { id =>
      val ing = u.byId(id)
      val core = if (ing.isCore) 1.0 else 0.0
      val cat = 2.0 * math.log(spec.emphasis.getOrElse(ing.category, 1.0))
      val noise = -math.log(-math.log(rng.nextDouble() + 1e-300)) * 0.6
      (id, gamma * core + cat + noise)
    }.sortBy(-_._2).map(_._1).toArray
  }

  private def binomial(rng: Random, trials: Int, p: Double): Int = {
    var c = 0; var i = 0
    while (i < trials) { if (rng.nextDouble() < p) c += 1; i += 1 }
    c
  }

  /** Ensure every pool ingredient occurs at least once: for each unused
    * ingredient, replace — in some recipe — an ingredient that occurs in
    * at least two recipes, keeping within-recipe distinctness.
    */
  private def injectMissing(recipes: Array[mutable.ArrayBuffer[Int]],
                            pool: Array[Int], rng: Random): Unit = {
    val counts = mutable.HashMap.empty[Int, Int].withDefaultValue(0)
    for (rec <- recipes; ing <- rec) counts(ing) += 1
    val missing = pool.filter(counts(_) == 0)
    val order = rng.shuffle(recipes.indices.toVector)
    var oi = 0
    for (m <- missing) {
      var placed = false
      var guard = 0
      while (!placed && guard < recipes.length * 2) {
        val rec = recipes(order(oi % order.length))
        oi += 1; guard += 1
        if (!rec.contains(m)) {
          // pick a victim slot whose ingredient occurs elsewhere too
          val slot = rec.indices.find(s => counts(rec(s)) >= 2)
          slot.foreach { s =>
            counts(rec(s)) -= 1
            rec(s) = m
            counts(m) += 1
            placed = true
          }
        }
      }
      require(placed, s"could not inject missing ingredient $m")
    }
  }
}
