package repro.core

import org.apache.spark.sql.DataFrame
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

import repro.SparkSpec

/** ScalaCheck properties of the Spark scorers on random tiny corpora:
  * `recipeScores` equals N_s^R computed by definition on the driver, and
  * `Contribution.chi` equals actually removing each ingredient and
  * re-scoring the cuisine on the driver.
  */
class ScoringPropertySpec extends AnyFunSuite with SparkSpec {

  import spark.implicits._

  /** (region, recipe_id, ing_id) slots, duplicates allowed, and the nonzero
    * overlaps |F_a ∩ F_b| keyed by (a, b) with a < b.
    */
  private final case class Corpus(slots: Vector[(String, Long, Int)],
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
    recipes.zipWithIndex.toVector.flatMap { case ((region, ings), id) =>
      ings.map(i => (region, id.toLong, i))
    },
    pairs.zip(weights).filter(_._2 > 0).toMap,
  )

  private def close(a: Double, b: Double): Boolean =
    math.abs(a - b) <= 1e-9 * math.max(1.0, math.abs(b))

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
      // One row per ingredient of a scored recipe; removal re-scores every
      // recipe, dropping those left with fewer than 2 ingredients.
      val expected = (for {
        (region, byId) <- c.regions
        recipes         = byId.values.toVector
        scored          = recipes.filter(_.size >= 2)
        ns              = c.ns(recipes)
        ing            <- scored.flatten.distinct
      } yield {
        val nsWithout = c.ns(recipes.map(_ - ing))
        val chi = for (w <- nsWithout; n <- ns if n != 0) yield 100.0 * (w - n) / n
        (region, ing) -> ((chi, nsWithout, scored.count(_(ing)).toLong))
      }).toMap
      def sameOpt(a: Option[Double], b: Option[Double]) = (a, b) match {
        case (Some(x), Some(y)) => close(x, y)
        case _                  => a == b
      }
      mismatches(got, expected) { case ((c1, w1, f1), (c2, w2, f2)) =>
        sameOpt(c1, c2) && sameOpt(w1, w2) && f1 == f2
      }
    })
  }
}
