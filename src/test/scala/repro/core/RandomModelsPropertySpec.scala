package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

import repro.core.RandomModels.{AllModels, CuisineProfile}

/** ScalaCheck properties of the four null models on random tiny cuisines,
  * sampled on the driver without Spark: whatever the cuisine, every model
  * keeps what Methodology IV.B says it keeps and never throws.
  */
class RandomModelsPropertySpec extends AnyFunSuite {

  /** A cuisine of set-valued recipes over at most 8 ingredient ids in 1–3
    * categories, profiled on the driver, with a recipe count and a seed.
    */
  private val cuisine: Gen[(CuisineProfile, Int, Long)] = for {
    nIds     <- Gen.choose(1, 8)
    nCats    <- Gen.choose(1, 3)
    catOf    <- Gen.listOfN(nIds, Gen.choose(0, nCats - 1).map(c => s"cat$c"))
    nReal    <- Gen.choose(1, 6)
    recipes  <- Gen.listOfN(nReal, Gen.atLeastOne(0 until nIds))
    nRecipes <- Gen.choose(0, 20)
    seed     <- Gen.choose(0L, 1000L)
  } yield {
    val rows = for ((ings, rid) <- recipes.zipWithIndex; i <- ings) yield (rid.toLong, 100 + i, catOf(i))
    (RandomModels.profile("TST", rows), nRecipes, seed)
  }

  /** Every way a model's sample of `prof` breaks a null-model invariant. */
  private def violations(prof: CuisineProfile, nRecipes: Int, seed: Long): Seq[String] = {
    val catOf = prof.ingredients.zip(prof.categories).toMap
    val templates = prof.recipeCategories.map(_.sorted.toSeq).toSet
    AllModels.flatMap { m =>
      val recipes = RandomModels.sampleRows(prof, m, nRecipes, seed).groupBy(_._2)
        .map { case (rid, rows) => rid -> rows.map(_._3) }
      def broken(what: String, ok: Boolean) = if (ok) None else Some(s"${m.name}: $what")
      Seq(
        broken("foreign ingredient", recipes.values.flatten.forall(catOf.contains)),
        broken("repeated ingredient", recipes.values.forall(r => r.distinct.size == r.size)),
        broken("size outside the templates' sizes",
               recipes.values.forall(r => prof.recipeSizes.contains(r.size))),
        broken("category multiset of no template", !m.keepsCategories ||
               recipes.values.forall(r => templates(r.map(catOf).sorted))),
        broken(s"${recipes.size} recipes, not $nRecipes", recipes.keySet == (0L until nRecipes).toSet),
      ).flatten
    }
  }

  test("every null model keeps its invariants on random tiny cuisines") {
    val params = Test.Parameters.default.withMinSuccessfulTests(50).withInitialSeed(Seed(2018L))
    val result = Test.check(params, Prop.forAll(cuisine) { case (prof, n, seed) =>
      val bad = violations(prof, n, seed)
      Prop(bad.isEmpty) :| bad.mkString("; ")
    })
    assert(result.passed, Pretty.pretty(result))
  }

  test("every null model keeps its invariants when the rejection fallback fires") {
    // One ingredient holds nearly all the weight, so a frequency draw for a
    // second or third slot is rejected 200 times and takes the first free one.
    val skewed = CuisineProfile("TST", Array(1, 2, 3), Array(1000000000L, 1L, 1L),
                                Array("c", "c", "c"), Array(3), Array(Array("c", "c", "c")))
    assert(violations(skewed, 20, 11L).isEmpty)
    for (m <- AllModels.filter(_.byFrequency))
      assert(RandomModels.sampleRows(skewed, m, 20, 11L).map(_._3) == Vector.fill(20)(Vector(1, 2, 3)).flatten,
             m.name)
  }
}
