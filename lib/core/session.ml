type sink = Result.t -> unit

type t = {
  config : Config.t;
  client : string option;
  tags : (string * string) list;
  sink : sink option;
}

let create ?client ?(tags = []) ?sink config = { config; client; tags; sink }

let of_config config = { config; client = None; tags = []; sink = None }

let config t = t.config

let span_tags t =
  (match t.client with None -> [] | Some c -> [ ("client", c) ]) @ t.tags

let emit t r = match t.sink with None -> () | Some f -> f r
