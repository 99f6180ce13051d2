package repro.core

import scala.util.{Failure, Success, Try}

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, lit}
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

import repro.SparkSpec
import repro.stats.{CorpusKernel, CuisineStats}

/** ScalaCheck properties of the scorers on random tiny corpora:
  * `recipeScores` equals N_s^R computed by definition in plain Scala,
  * `Contribution.chi` equals actually removing each ingredient and
  * re-scoring the cuisine, and [[PairingKernel]] over a dense matrix built
  * from the same overlaps gives both definitions too. On the same corpora
  * plus an UNREG recipe, [[CorpusKernel]] equals the [[CuisineStats]]
  * DataFrames.
  */
class ScoringPropertySpec extends AnyFunSuite with SparkSpec {

  import spark.implicits._

  /** (region, recipe_id, ing_id) slots over ids [0, nIds), duplicates
    * allowed, and the nonzero overlaps |F_a ∩ F_b| keyed by (a, b), a < b.
    */
  private final case class Corpus(nIds: Int, slots: Vector[(String, Long, Int)],
                                  shared: Map[(Int, Int), Int]) {
    def recipesDf: DataFrame = slots.toDF("region", "recipe_id", "ing_id")
    def sharedDf: DataFrame =
      shared.toSeq.map { case ((a, b), w) => (a, b, w) }.toDF("ing_a", "ing_b", "shared")

    /** Distinct ingredients per recipe, grouped by region. */
    def regions: Map[String, Map[Long, Set[Int]]] =
      slots.groupBy(_._1).map { case (region, rows) =>
        region -> rows.groupBy(_._2).map { case (id, rs) => id -> rs.map(_._3).toSet }
      }

    /** N_s^R by definition; None below 2 ingredients. */
    def score(ings: Set[Int]): Option[Double] = {
      val sorted = ings.toVector.sorted
      val n = sorted.size
      if (n < 2) None
      else {
        val sum = (for (i <- 0 until n; j <- i + 1 until n)
          yield shared.getOrElse((sorted(i), sorted(j)), 0).toLong).sum
        Some(2.0 * sum / (n * (n - 1)))
      }
    }

    /** N_s^C over the recipes that still have a score; None if none has. */
    def ns(recipes: Iterable[Set[Int]]): Option[Double] = {
      val scores = recipes.flatMap(score)
      if (scores.isEmpty) None else Some(scores.sum / scores.size)
    }

    /** (chi, ns_without, freq) per (region, ingredient) by removal: one row
      * per ingredient of a scored recipe; removal re-scores every recipe,
      * dropping those left with fewer than 2 ingredients.
      */
    def chi: Map[(String, Int), (Option[Double], Option[Double], Long)] =
      (for {
        (region, byId) <- regions
        recipes         = byId.values.toVector
        scored          = recipes.filter(_.size >= 2)
        ns              = this.ns(recipes)
        ing            <- scored.flatten.distinct
      } yield {
        val nsWithout = this.ns(recipes.map(_ - ing))
        val chi = for (w <- nsWithout; n <- ns if n != 0) yield 100.0 * (w - n) / n
        (region, ing) -> ((chi, nsWithout, scored.count(_(ing)).toLong))
      }).toMap

    /** The kernel over the dense symmetric matrix of `shared`. */
    def kernel: PairingKernel = {
      val m = new Array[Int](nIds * nIds)
      for (((a, b), w) <- shared) { m(a * nIds + b) = w; m(b * nIds + a) = w }
      new PairingKernel(m, nIds)
    }
  }

  private val corpus: Gen[Corpus] = for {
    nIds     <- Gen.choose(2, 6)
    nRecipes <- Gen.choose(1, 4)
    recipes  <- Gen.listOfN(nRecipes, for {
                  region <- Gen.oneOf("X", "Y")
                  size   <- Gen.choose(1, 5)
                  ings   <- Gen.listOfN(size, Gen.choose(0, nIds - 1))
                } yield (region, ings))
    pairs     = for (a <- 0 until nIds; b <- a + 1 until nIds) yield (a, b)
    weights  <- Gen.listOfN(pairs.size, Gen.frequency(1 -> Gen.const(0), 1 -> Gen.choose(1, 5)))
  } yield Corpus(
    nIds,
    recipes.zipWithIndex.toVector.flatMap { case ((region, ings), id) =>
      ings.map(i => (region, id.toLong, i))
    },
    pairs.zip(weights).filter(_._2 > 0).toMap,
  )

  private def close(a: Double, b: Double): Boolean =
    math.abs(a - b) <= 1e-9 * math.max(1.0, math.abs(b))

  private def sameOpt(a: Option[Double], b: Option[Double]): Boolean = (a, b) match {
    case (Some(x), Some(y)) => close(x, y)
    case _                  => a == b
  }

  private def sameChi(a: (Option[Double], Option[Double], Long),
                      b: (Option[Double], Option[Double], Long)): Boolean =
    sameOpt(a._1, b._1) && sameOpt(a._2, b._2) && a._3 == b._3

  /** Runs `prop` on 25 corpora from a fixed seed (one Spark collect each). */
  private def check(prop: Prop): Unit = {
    val params = Test.Parameters.default.withMinSuccessfulTests(25).withInitialSeed(Seed(2018L))
    val result = Test.check(params, prop)
    assert(result.passed, Pretty.pretty(result))
  }

  /** Keys on which `got` and `expected` differ, printed with both values. */
  private def mismatches[K, V](got: Map[K, V], expected: Map[K, V])(same: (V, V) => Boolean): Prop = {
    val bad = (got.keySet ++ expected.keySet).filterNot { k =>
      (got.get(k), expected.get(k)) match {
        case (Some(g), Some(e)) => same(g, e)
        case _                  => false
      }
    }
    Prop(bad.isEmpty) :| bad.map(k => s"$k: got ${got.get(k)}, expected ${expected.get(k)}").mkString("; ")
  }

  test("recipeScores equals N_s^R computed on the driver") {
    check(Prop.forAll(corpus) { c =>
      val got = FoodPairing.recipeScores(spark, c.recipesDf, c.sharedDf).collect()
        .map(r => (r.getString(0), r.getLong(1)) -> (r.getInt(2), r.getDouble(3))).toMap
      val expected = for {
        (region, recipes) <- c.regions
        (id, ings)        <- recipes
        s                 <- c.score(ings)
      } yield (region, id) -> (ings.size, s)
      mismatches(got, expected) { case ((n1, s1), (n2, s2)) => n1 == n2 && close(s1, s2) }
    })
  }

  test("chi equals removing the ingredient and re-scoring on the driver") {
    check(Prop.forAll(corpus) { c =>
      // Nulls mark an undefined N_s without the ingredient or an N_s of 0.
      val got = Contribution.chi(spark, c.recipesDf, c.sharedDf).collect()
        .map(r => (r.getString(0), r.getInt(1)) ->
          ((if (r.isNullAt(2)) None else Some(r.getDouble(2)),
            if (r.isNullAt(3)) None else Some(r.getDouble(3)), r.getLong(4)))).toMap
      mismatches(got, c.chi)(sameChi)
    })
  }

  test("the kernel's N_s^R, N_s^C, sigma and chi equal their definitions") {
    check(Prop.forAll(corpus) { c =>
      val k = c.kernel
      val recipes = c.slots.groupBy(_._1).map { case (region, rows) => region -> PairingKernel.recipes(rows) }
      // A one-recipe cuisine scores N_s^R; None below 2 ingredients.
      val perRecipe = for ((region, byId) <- c.regions; (id, ings) <- byId) yield
        (region, id) -> (k.cuisine(Array(ings.toArray.sorted)).map(_.ns), c.score(ings))
      val gotCuisine = recipes.flatMap { case (region, rs) =>
        k.cuisine(rs).map(cs => region -> (cs.ns, cs.sigma, cs.nRecipes)) }
      val expectedCuisine = c.regions.flatMap { case (region, byId) =>
        val scores = byId.values.flatMap(c.score).toVector
        Option.when(scores.nonEmpty) {
          val mean = scores.sum / scores.size
          region -> (mean, math.sqrt(scores.map(x => (x - mean) * (x - mean)).sum / scores.size),
                     scores.size.toLong)
        }
      }
      val gotChi = for ((region, rs) <- recipes; x <- k.chi(rs)) yield
        (region, x.ingId) -> ((x.chi, x.nsWithout, x.freq))
      val badRecipes = perRecipe.filterNot { case (_, (g, e)) => sameOpt(g, e) }
      (Prop(badRecipes.isEmpty) :| s"N_s^R: $badRecipes") &&
        mismatches(gotCuisine, expectedCuisine) { case ((n1, s1, c1), (n2, s2, c2)) =>
          close(n1, n2) && close(s1, s2) && c1 == c2 } &&
        mismatches(gotChi, c.chi)(sameChi)
    })
  }

  test("CorpusKernel equals the CuisineStats DataFrames on Table 1, Fig 2 and Fig 3") {
    // Repeated slots count in Fig 2 only; the UNREG recipe counts in
    // Table 1's WORLD row, Fig 2 and the histogram only; ingredient 0 has
    // no category, so Fig 2 leaves its slots out.
    val withUnreg = for (c <- corpus; ings <- Gen.nonEmptyListOf(Gen.choose(0, c.nIds - 1)))
      yield c.copy(slots = c.slots ++ ings.map(i => (CuisineStats.Unregioned, 100L, i)))
    val category = (id: Int) => Option.when(id > 0)(s"c${id % 3}")
    check(Prop.forAll(withUnreg) { c =>
      val all = c.recipesDf
      val regional = all.filter(col("region") =!= CuisineStats.Unregioned)
      val ingredients = (1 until c.nIds).map(i => (i, category(i).get)).toDF("ing_id", "category")
      val k = new CorpusKernel(c.slots.toArray)

      val table1 = CuisineStats.table1(all).collect().map(r => (r.getString(0), r.getLong(1), r.getLong(2)))
      val fig2 = CuisineStats.categoryComposition(all, ingredients).collect()
        .map(r => (r.getString(0), r.getString(1)) -> r.getDouble(3)).toMap
      val sizes = CuisineStats.meanRecipeSize(CuisineStats.withWorld(regional)).collect()
        .map(r => r.getString(0) -> (r.getDouble(1), r.getInt(2))).toMap
      val popularity = CuisineStats.popularity(all).collect()
        .map(r => (r.getString(0), r.getInt(1)) -> (r.getLong(2), r.getInt(3), r.getDouble(4))).toMap
      val slopes = Try(CuisineStats.popularitySlope(regional).collect().map(r => r.getString(0) -> r.getDouble(1)).toMap)
      val hist = CuisineStats.sizeDistribution(all.withColumn("region", lit(CuisineStats.World))).collect()
        .map(r => r.getInt(1) -> r.getLong(2)).toMap

      val gotPopularity = for (region <- k.recipes.keys; q <- k.popularity(region))
        yield (region, q.ingId) -> (q.freq, q.rank, q.normFreq)
      // A region of one distinct ingredient has no slope: both paths fail.
      val slopesAgree = (Try(k.popularitySlopes.toMap), slopes) match {
        case (Success(got), Success(expected))                => mismatches(got, expected)(close)
        case (Failure(_: IllegalArgumentException), Failure(_)) => Prop.passed
        case other                                            => Prop.falsified :| s"slopes: $other"
      }
      (Prop(k.table1.sorted == table1.toVector.sorted) :| s"table1: ${k.table1} vs ${table1.toVector}") &&
        mismatches(k.categoryComposition(category).map(r => (r._1, r._2) -> r._3).toMap, fig2)(close) &&
        mismatches(k.meanSizes.map(r => r._1 -> (r._2, r._3)).toMap, sizes) { case ((m1, x1), (m2, x2)) =>
          close(m1, m2) && x1 == x2 } &&
        mismatches(gotPopularity.toMap, popularity) { case ((f1, r1, n1), (f2, r2, n2)) =>
          f1 == f2 && r1 == r2 && close(n1, n2) } &&
        slopesAgree &&
        (Prop(k.sizeHistogram.toMap == hist) :| s"histogram: ${k.sizeHistogram} vs $hist")
    })
  }
}
