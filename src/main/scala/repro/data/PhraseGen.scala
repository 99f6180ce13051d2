package repro.data

import scala.util.Random

import repro.flavor.{FlavorGen, FlavorUniverse}
import repro.ingest.TextNorm

/** Synthesizes raw ingredient phrases ("2 jalapeno peppers, roasted and
  * slit" style) for ground-truth recipes, so the aliasing pipeline
  * (Methodology IV.A) is exercised end-to-end.
  *
  * Decorations are drawn exclusively from [[TextNorm.CulinaryStopwords]]
  * and numerals; the ingredient surface form may be pluralized or replaced
  * by a registered synonym — all invertible by the aliaser.
  *
  * One formula renders every phrase, `phrase(name, recipeId, slot, ingId)`:
  * the pipeline calls it inside Spark tasks, and the universe-based
  * `phrase` and `phrases` delegate to it on the driver.
  */
object PhraseGen {

  private val Quantities = Vector("1", "2", "3", "4", "1/2", "1/4", "3/4", "1 1/2", "2 1/2")
  private val Units = Vector("cup", "cups", "tablespoons", "teaspoon", "grams",
                             "ounces", "pounds", "ml", "pinch", "sticks", "pieces", "")
  private val PreDescriptors = Vector("fresh", "finely chopped", "large", "small",
                                      "ripe", "dried", "frozen", "coarsely grated", "")
  private val PostDescriptors = Vector(", roasted and slit", ", diced", ", to taste",
                                       ", finely sliced", ", peeled and crushed",
                                       ", drained and rinsed", "")

  /** Surface synonyms: canonical name → alternative surface forms. */
  val SurfaceSynonyms: Map[String, Vector[String]] = {
    val m = collection.mutable.Map.empty[String, Vector[String]]
    for ((surface, canonical) <- FlavorGen.Synonyms)
      m(canonical) = m.getOrElse(canonical, Vector.empty) :+ surface
    m.toMap
  }

  /** Render the phrase for one (recipe, slot) deterministically. */
  def phrase(u: FlavorUniverse, recipeId: Long, slot: Int, ingId: Int): String =
    phrase(u.byId(ingId).name, recipeId, slot, ingId)

  /** The phrase for ingredient `ingId`, canonically named `name`, in one
    * (recipe, slot). Needs no universe, so Spark tasks call it directly.
    */
  def phrase(name: String, recipeId: Long, slot: Int, ingId: Int): String = {
    val rng = new Random(recipeId * 1013904223L + slot * 2654435761L + ingId)

    val surface0 = SurfaceSynonyms.get(name) match {
      case Some(alts) if rng.nextDouble() < 0.3 => alts(rng.nextInt(alts.size))
      case _                                    => name
    }
    // Pluralize the final token 40% of the time (inverted by TextNorm).
    val surface =
      if (rng.nextDouble() < 0.4) {
        val toks = surface0.split(' ')
        (toks.dropRight(1) :+ TextNorm.pluralize(toks.last)).mkString(" ")
      } else surface0

    val qty  = Quantities(rng.nextInt(Quantities.size))
    val unit = Units(rng.nextInt(Units.size))
    val pre  = PreDescriptors(rng.nextInt(PreDescriptors.size))
    val post = PostDescriptors(rng.nextInt(PostDescriptors.size))

    Seq(qty, unit, pre, surface).filter(_.nonEmpty).mkString(" ") + post
  }

  /** Render a whole recipe into (slot, phrase) pairs. */
  def phrases(u: FlavorUniverse, row: RecipeRow): Vector[(Int, String)] =
    row.ingredientIds.zipWithIndex.map { case (ing, slot) =>
      slot -> phrase(u, row.recipeId, slot, ing)
    }
}
